//! The one binary layout of every value that crosses the wire or the
//! write-ahead log.
//!
//! A type's layout is its [`Wire`] impl. Structs declare theirs with
//! [`wire_struct!`](crate::wire_struct) and enums with
//! [`wire_enum!`](crate::wire_enum), which write the encoder and the
//! decoder from one list; the primitives are written once, here. `u8` is a
//! byte; `u64`, `i64`, the id newtypes and [`SimTime`] are a little-endian
//! word; `u32`, `i32` and `usize` take a word too and decode only when it
//! fits. A `String` is a length word and its UTF-8 bytes, a `Vec` a count
//! word and its items, an `Option` a tag byte (0 or 1) and the value.
//!
//! Decoding is the exact inverse of encoding: `get` returns `None` for any
//! bytes `put` cannot write, so a value has one encoding. Every count is
//! checked against the bytes left before anything is allocated for it
//! (`get_len`), so a hostile count costs nothing.

use crate::id::{ForumId, MessageId, OrganisationId, PersonId, TagId};
use crate::time::SimTime;
use std::marker::PhantomData;

/// A type with one binary layout.
pub trait Wire: Sized {
    /// The fewest bytes an encoding takes: bounds a count by the bytes left.
    const MIN_BYTES: usize;
    /// Append the encoding of `self` to `buf`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Read one value off the front of `p`; `None` when the bytes are not
    /// an encoding.
    fn get(p: &mut &[u8]) -> Option<Self>;
}

/// A layout for `T` other than its own, for a field declared `field: T as
/// L` in [`wire_struct!`](crate::wire_struct): a dictionary string
/// re-interned on decode, or a value with a narrower range than its type.
pub trait Layout<T> {
    /// As [`Wire::MIN_BYTES`].
    const MIN_BYTES: usize;
    /// As [`Wire::put`].
    fn put(v: &T, buf: &mut Vec<u8>);
    /// As [`Wire::get`].
    fn get(p: &mut &[u8]) -> Option<T>;
}

/// `T`'s own layout: what a field declared without `as` takes.
pub struct Own<T>(PhantomData<T>);

impl<T: Wire> Layout<T> for Own<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;

    #[inline]
    fn put(v: &T, buf: &mut Vec<u8>) {
        v.put(buf)
    }

    #[inline]
    fn get(p: &mut &[u8]) -> Option<T> {
        T::get(p)
    }
}

/// A list whose items take the layout `L`.
impl<T, L: Layout<T>> Layout<Vec<T>> for Vec<L> {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn put(v: &Vec<T>, buf: &mut Vec<u8>) {
        (v.len() as u64).put(buf);
        v.iter().for_each(|item| L::put(item, buf));
    }

    #[inline]
    fn get(p: &mut &[u8]) -> Option<Vec<T>> {
        let n = get_len(p, L::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(L::get(p)?);
        }
        Some(out)
    }
}

/// Decode one `T` that fills `bytes` exactly: trailing bytes are refused.
pub fn decode_exact<T: Wire>(mut bytes: &[u8]) -> Option<T> {
    let v = T::get(&mut bytes);
    if bytes.is_empty() {
        v
    } else {
        None
    }
}

/// A count of items that take at least `min_bytes` each, or `None` when
/// the bytes left could not hold that many, so a decode allocates at most
/// what its input could fill.
#[inline]
fn get_len(p: &mut &[u8], min_bytes: usize) -> Option<usize> {
    let n = u64::get(p)?;
    (n <= (p.len() / min_bytes.max(1)) as u64).then_some(n as usize)
}

/// Append a string: its length word and its bytes.
#[inline]
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    (s.len() as u64).put(buf);
    buf.extend_from_slice(s.as_bytes());
}

/// Read a string written by [`put_str`], borrowed from the input.
#[inline]
pub(crate) fn get_str<'a>(p: &mut &'a [u8]) -> Option<&'a str> {
    let len = get_len(p, 1)?;
    let (bytes, rest) = p.split_at(len);
    *p = rest;
    std::str::from_utf8(bytes).ok()
}

impl Wire for u8 {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }

    #[inline]
    fn get(p: &mut &[u8]) -> Option<u8> {
        let (&b, rest) = p.split_first()?;
        *p = rest;
        Some(b)
    }
}

impl Wire for u64 {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn get(p: &mut &[u8]) -> Option<u64> {
        let (bytes, rest) = p.split_first_chunk::<8>()?;
        *p = rest;
        Some(u64::from_le_bytes(*bytes))
    }
}

/// Types that ride in a word: `as` it on encode, and back on decode only
/// when `$back` accepts it.
macro_rules! word {
    ($($t:ty => $w:ty, $back:expr;)*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = 8;

            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                (*self as $w).put(buf)
            }

            #[inline]
            fn get(p: &mut &[u8]) -> Option<$t> {
                $back(<$w>::get(p)?)
            }
        }
    )*};
}

word! {
    i64 => u64, |w| Some(w as i64);
    u32 => u64, |w| u32::try_from(w).ok();
    i32 => i64, |w| i32::try_from(w).ok();
    usize => u64, |w| usize::try_from(w).ok();
}

/// Newtypes are the word they wrap.
macro_rules! newtype {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = 8;

            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                self.0.put(buf)
            }

            #[inline]
            fn get(p: &mut &[u8]) -> Option<$t> {
                Wire::get(p).map($t)
            }
        }
    )*};
}

newtype!(SimTime, PersonId, ForumId, MessageId, TagId, OrganisationId);

impl Wire for String {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_str(buf, self);
    }

    #[inline]
    fn get(p: &mut &[u8]) -> Option<String> {
        get_str(p).map(str::to_owned)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        <Vec<Own<T>> as Layout<Vec<T>>>::put(self, buf)
    }

    #[inline]
    fn get(p: &mut &[u8]) -> Option<Vec<T>> {
        <Vec<Own<T>> as Layout<Vec<T>>>::get(p)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(self.is_some() as u8);
        self.iter().for_each(|v| v.put(buf));
    }

    #[inline]
    fn get(p: &mut &[u8]) -> Option<Option<T>> {
        match u8::get(p)? {
            0 => Some(None),
            1 => T::get(p).map(Some),
            _ => None,
        }
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.iter().for_each(|v| v.put(buf));
    }

    #[inline]
    fn get(p: &mut &[u8]) -> Option<[T; N]> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::get(p)?;
        }
        Some(out)
    }
}

/// Tuples are their fields in order.
macro_rules! tuple {
    ($($t:ident),*) => {
        #[allow(non_snake_case)]
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)*;

            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                let ($($t,)*) = self;
                $($t.put(buf);)*
            }

            #[inline]
            fn get(p: &mut &[u8]) -> Option<Self> {
                Some(($($t::get(p)?,)*))
            }
        }
    };
}

tuple!(A, B);
tuple!(A, B, C);

/// Define a struct and its [`Wire`] layout from one field list: each field
/// in declaration order, in its own layout, or in the [`Layout`] `L` when
/// declared `field: T as L`.
#[macro_export]
macro_rules! wire_struct {
    (@layout $ty:ty) => { $crate::wire::Own<$ty> };
    (@layout $ty:ty, $via:ty) => { $via };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty $(as $via:ty)?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $crate::wire::Wire for $name {
            const MIN_BYTES: usize = 0 $(
                + <$crate::wire_struct!(@layout $ty $(, $via)?) as $crate::wire::Layout<$ty>>::MIN_BYTES
            )*;

            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                $(<$crate::wire_struct!(@layout $ty $(, $via)?) as $crate::wire::Layout<$ty>>::put(
                    &self.$field,
                    buf,
                );)*
            }

            #[inline]
            fn get(p: &mut &[u8]) -> Option<Self> {
                Some($name {
                    $($field: <$crate::wire_struct!(@layout $ty $(, $via)?) as $crate::wire::Layout<$ty>>::get(p)?,)*
                })
            }
        }
    };
}

/// Write an enum's [`Wire`] layout from one list of its variants: a
/// variant is its tag byte, then its fields in the order the list binds
/// them, each in its own layout or, bound `field as L`, in the [`Layout`]
/// `L`; e.g. `wire_enum!(Shape { 1 => Dot, 2 => Line(from, to), 3 =>
/// Rect { corner, size as Area } })`. Any other tag does not decode.
#[macro_export]
macro_rules! wire_enum {
    ($name:ident {
        $($tag:literal => $variant:ident
            $(($($f:ident $(as $fv:ty)?),*))? $({$($g:ident $(as $gv:ty)?),*})?),* $(,)?
    }) => {
        impl $crate::wire::Wire for $name {
            const MIN_BYTES: usize = 1;

            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($name::$variant $(($($f),*))? $({$($g),*})? => {
                        buf.push($tag);
                        $($(<$crate::wire_struct!(@layout _ $(, $fv)?) as $crate::wire::Layout<_>>::put($f, buf);)*)?
                        $($(<$crate::wire_struct!(@layout _ $(, $gv)?) as $crate::wire::Layout<_>>::put($g, buf);)*)?
                    })*
                }
            }

            #[inline]
            fn get(p: &mut &[u8]) -> Option<Self> {
                Some(match <u8 as $crate::wire::Wire>::get(p)? {
                    $($tag => {
                        $($(let $f = <$crate::wire_struct!(@layout _ $(, $fv)?) as $crate::wire::Layout<_>>::get(p)?;)*)?
                        $($(let $g = <$crate::wire_struct!(@layout _ $(, $gv)?) as $crate::wire::Layout<_>>::get(p)?;)*)?
                        $name::$variant $(($($f),*))? $({$($g),*})?
                    })*
                    _ => return None,
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes<T: Wire>(v: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        v.put(&mut buf);
        buf
    }

    #[test]
    fn words_are_little_endian_and_narrow_only_when_they_fit() {
        assert_eq!(bytes(&-2i64), [0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]);
        assert_eq!(bytes(&-2i32), bytes(&-2i64));
        assert_eq!(bytes(&PersonId(7)), bytes(&7u64));
        assert_eq!(decode_exact::<i32>(&bytes(&i64::from(i32::MIN))), Some(i32::MIN));
        assert_eq!(decode_exact::<i32>(&bytes(&(i64::from(i32::MAX) + 1))), None);
        assert_eq!(decode_exact::<u32>(&bytes(&(1u64 << 32))), None);
    }

    #[test]
    fn options_take_only_the_tags_they_write() {
        assert_eq!(bytes(&Some(3u8)), [1, 3]);
        assert_eq!(bytes(&None::<u8>), [0]);
        assert_eq!(decode_exact::<Option<u8>>(&[2, 3]), None);
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut buf = bytes(&vec![1u64, 2]);
        assert_eq!(decode_exact::<Vec<u64>>(&buf), Some(vec![1, 2]));
        buf[0] = 3; // three words claimed, two present
        assert_eq!(decode_exact::<Vec<u64>>(&buf), None);
        let mut huge = bytes(&(1u64 << 62));
        huge.extend_from_slice(&[0; 16]);
        assert_eq!(decode_exact::<Vec<String>>(&huge), None);
    }

    #[test]
    fn strings_must_be_utf8_and_trailing_bytes_are_refused() {
        assert_eq!(decode_exact::<String>(&bytes(&"Käthe".to_string())).as_deref(), Some("Käthe"));
        let mut bad = bytes(&"ab".to_string());
        bad[8] = 0xFF;
        assert_eq!(decode_exact::<String>(&bad), None);
        let mut long = bytes(&7u64);
        long.push(0);
        assert_eq!(decode_exact::<u64>(&long), None);
    }
}
