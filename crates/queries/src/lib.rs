//! # snb-queries
//!
//! The SNB-Interactive read workload: the 14 complex read-only queries of
//! the paper's Appendix and the 7 short read-only queries (profile/post
//! lookups) — each over a [`snb_store::PinnedSnapshot`] (latch pinned
//! once, lazy borrowing scans), with an intended-plan engine and
//! a scan-based naive engine (see [`engine`]). The 8 transactional updates
//! are applied by the store itself ([`snb_store::Store::apply`]). Traversals reuse a per-thread [`QueryScratch`]
//! instead of allocating visited sets per query (see [`scratch`]).

pub mod complex;
pub mod engine;
pub mod helpers;
pub mod params;
pub mod scratch;
pub mod sharded;
pub mod short;

pub use engine::Engine;
pub use params::{ComplexQuery, ShortQuery};
pub use scratch::{with_scratch, QueryScratch};

#[cfg(test)]
pub(crate) mod testutil {
    use snb_core::time::SimTime;
    use snb_core::PersonId;
    use std::sync::OnceLock;

    pub(crate) struct Fixture {
        pub ds: snb_datagen::Dataset,
        pub store: snb_store::Store,
    }

    /// Shared generated dataset + fully loaded store for query tests.
    pub(crate) fn fixture() -> &'static Fixture {
        static F: OnceLock<Fixture> = OnceLock::new();
        F.get_or_init(|| {
            let ds = snb_datagen::generate(
                snb_datagen::GeneratorConfig::with_persons(350).activity(0.5).seed(7),
            )
            .unwrap();
            let store = snb_store::Store::new();
            store.load_full(&ds);
            Fixture { ds, store }
        })
    }

    /// The highest-degree person — a worst-case-ish query anchor.
    pub(crate) fn busy_person(f: &Fixture) -> PersonId {
        let mut deg = vec![0u32; f.ds.persons.len()];
        for k in &f.ds.knows {
            deg[k.a.index()] += 1;
            deg[k.b.index()] += 1;
        }
        PersonId(deg.iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64)
    }

    /// A date two years into the simulation — most data exists by then.
    pub(crate) fn mid_date() -> SimTime {
        SimTime::from_ymd(2012, 1, 1)
    }
}
