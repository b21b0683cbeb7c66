//! The SNB entity schema.
//!
//! §2: "Its schema has 11 entities connected by 20 relations [...] The main
//! entities are: Persons, Tags, Forums, Messages (Posts, Comments and
//! Photos), Likes, Organizations, and Places." Tags, Places and
//! Organisations are dimension-like and live in the static
//! [`crate::dict::Dictionaries`]; the dynamic entities generated per-dataset
//! are defined here as plain value types shared by the generator, the store
//! and the CSV serializer. Each declares its one binary layout, the one the
//! write-ahead log and the wire carry, with `wire_struct!`; a dictionary
//! string travels as its text and is re-interned on decode.
//!
//! Photos are modelled as posts without explicit content in an album forum
//! (the original treats them as a `Post` subtype; nothing in the Interactive
//! workload distinguishes them beyond that).

use crate::dict::names::{intern_name, Gender};
use crate::dict::places::intern_language;
use crate::id::{ForumId, MessageId, OrganisationId, PersonId, TagId};
use crate::time::SimTime;
use crate::wire::{get_str, put_str, Layout};
use crate::{wire_enum, wire_struct};

/// Browsers used for the `browserUsed` attribute.
pub const BROWSERS: &[&str] = &["Chrome", "Firefox", "Internet Explorer", "Safari", "Opera"];

/// Resolve a browser name back to its `&'static str` (decoding).
pub fn intern_browser(name: &str) -> Option<&'static str> {
    BROWSERS.iter().find(|&&b| b == name).copied()
}

/// Wire layouts of dictionary strings: the string, re-interned on decode,
/// so a string outside its dictionary does not decode.
macro_rules! interned {
    ($($(#[$doc:meta])* $name:ident => $intern:path;)*) => {$(
        $(#[$doc])*
        struct $name;

        impl Layout<&'static str> for $name {
            const MIN_BYTES: usize = 8;

            fn put(v: &&'static str, buf: &mut Vec<u8>) {
                put_str(buf, v);
            }

            fn get(p: &mut &[u8]) -> Option<&'static str> {
                $intern(get_str(p)?)
            }
        }
    )*};
}

interned! {
    /// A first or last name.
    Name => intern_name;
    /// A browser name.
    Browser => intern_browser;
    /// A language code.
    Language => intern_language;
}

wire_struct! {
    /// A member of the social network.
    #[derive(Debug, Clone)]
    pub struct Person {
        /// Identifier; dense, increasing with `creation_date`.
        pub id: PersonId,
        /// Given name, correlated with location and gender (Table 1).
        pub first_name: &'static str as Name,
        /// Family name, correlated with location.
        pub last_name: &'static str as Name,
        /// Gender.
        pub gender: Gender,
        /// Date of birth (before `creation_date`).
        pub birthday: SimTime,
        /// When the account was created.
        pub creation_date: SimTime,
        /// Home city (index into the place dictionary).
        pub city: usize,
        /// Home country (denormalized from `city`).
        pub country: usize,
        /// Browser used.
        pub browser: &'static str as Browser,
        /// IPv4 address as dotted string, loosely tied to the country.
        pub location_ip: String,
        /// Languages spoken (country languages, possibly plus English).
        pub languages: Vec<&'static str> as Vec<Language>,
        /// Email addresses (`@company` / `@university`, Table 1).
        pub emails: Vec<String>,
        /// Interest tags; drive forum membership and post topics.
        pub interests: Vec<TagId>,
        /// University attended, if any.
        pub study_at: Option<StudyAt>,
        /// Employers.
        pub work_at: Vec<WorkAt>,
    }
}

wire_struct! {
    /// `studyAt` relation.
    #[derive(Debug, Clone, Copy)]
    pub struct StudyAt {
        /// University (dictionary organisation index).
        pub university: OrganisationId,
        /// Graduation class year.
        pub class_year: i32,
    }
}

wire_struct! {
    /// `workAt` relation.
    #[derive(Debug, Clone, Copy)]
    pub struct WorkAt {
        /// Company (dictionary organisation index).
        pub company: OrganisationId,
        /// Year employment started.
        pub work_from: i32,
    }
}

wire_struct! {
    /// An (undirected) `knows` friendship edge.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Knows {
        /// One endpoint (the lower id by convention in generated data).
        pub a: PersonId,
        /// Other endpoint.
        pub b: PersonId,
        /// When the friendship was established; never earlier than either
        /// account's `creation_date` (Table 1 time-ordering rules).
        pub creation_date: SimTime,
    }
}

/// Kind of forum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForumKind {
    /// Personal wall, created with the account.
    Wall,
    /// Interest group with open membership.
    Group,
    /// Photo album.
    Album,
}

wire_enum!(ForumKind { 0 => Wall, 1 => Group, 2 => Album });

wire_struct! {
    /// A forum: a wall, group, or album holding a tree of messages.
    #[derive(Debug, Clone)]
    pub struct Forum {
        /// Identifier.
        pub id: ForumId,
        /// Title.
        pub title: String,
        /// Moderator (owner).
        pub moderator: PersonId,
        /// Creation date (≥ moderator's account creation, Table 1).
        pub creation_date: SimTime,
        /// Forum topic tags.
        pub tags: Vec<TagId>,
        /// Kind.
        pub kind: ForumKind,
    }
}

wire_struct! {
    /// `hasMember` relation.
    #[derive(Debug, Clone, Copy)]
    pub struct ForumMembership {
        /// The forum joined.
        pub forum: ForumId,
        /// The joining person.
        pub person: PersonId,
        /// Join date (≥ forum creation).
        pub join_date: SimTime,
    }
}

wire_struct! {
    /// A root message in a forum (posts and photos).
    #[derive(Debug, Clone)]
    pub struct Post {
        /// Identifier; increases with `creation_date` across all messages.
        pub id: MessageId,
        /// Author (a member of `forum`).
        pub author: PersonId,
        /// Containing forum.
        pub forum: ForumId,
        /// Creation date.
        pub creation_date: SimTime,
        /// Content (empty string for photos; `image_file` set instead).
        pub content: String,
        /// Image file name, for photos.
        pub image_file: Option<String>,
        /// Topic tags.
        pub tags: Vec<TagId>,
        /// Language of the content (spoken by the author, Table 1).
        pub language: &'static str as Language,
        /// Country the post was made from.
        pub country: usize,
    }
}

wire_struct! {
    /// A reply in a discussion tree.
    #[derive(Debug, Clone)]
    pub struct Comment {
        /// Identifier, shared id space with posts.
        pub id: MessageId,
        /// Author (friend of someone in the thread).
        pub author: PersonId,
        /// Creation date (> parent's creation date).
        pub creation_date: SimTime,
        /// Content.
        pub content: String,
        /// Direct parent (post or comment).
        pub reply_to: MessageId,
        /// Root post of the thread (denormalized for S6/Q12).
        pub root_post: MessageId,
        /// Forum of the root post (denormalized).
        pub forum: ForumId,
        /// Topic tags (subset of the thread topic).
        pub tags: Vec<TagId>,
        /// Country the comment was made from.
        pub country: usize,
    }
}

wire_struct! {
    /// A `likes` edge from a person to a message.
    #[derive(Debug, Clone, Copy)]
    pub struct Like {
        /// The person who liked.
        pub person: PersonId,
        /// The liked message.
        pub message: MessageId,
        /// When (≥ the message's creation date).
        pub creation_date: SimTime,
    }
}

impl Person {
    /// Birthday month (1-12); used by Q10's horoscope-sign restriction.
    pub fn birthday_month(&self) -> u8 {
        self.birthday.month()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_person() -> Person {
        Person {
            id: PersonId(1),
            first_name: "Karl",
            last_name: "Muller",
            gender: Gender::Male,
            birthday: SimTime::from_ymd(1985, 4, 12),
            creation_date: SimTime::from_ymd(2010, 3, 1),
            city: 0,
            country: 0,
            browser: BROWSERS[0],
            location_ip: "10.0.0.1".to_string(),
            languages: vec!["de"],
            emails: vec!["karl@example.org".to_string()],
            interests: vec![TagId(3)],
            study_at: None,
            work_at: vec![],
        }
    }

    #[test]
    fn birthday_month_extraction() {
        assert_eq!(sample_person().birthday_month(), 4);
    }

    #[test]
    fn intern_browser_roundtrips() {
        assert_eq!(intern_browser("Chrome"), Some("Chrome"));
        assert_eq!(intern_browser("Netscape"), None);
    }

    #[test]
    fn gender_serialization() {
        assert_eq!(Gender::Male.as_str(), "male");
        assert_eq!(Gender::Female.as_str(), "female");
    }

    #[test]
    fn knows_edges_compare_by_value() {
        let k1 = Knows { a: PersonId(1), b: PersonId(2), creation_date: SimTime(5) };
        let k2 = Knows { a: PersonId(1), b: PersonId(2), creation_date: SimTime(5) };
        assert_eq!(k1, k2);
    }
}
