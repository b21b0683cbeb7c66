//! Quickstart: generate a small social network, load it into the store,
//! and run a few interactive queries.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ldbc_snb::core::{PersonId, SimTime};
use ldbc_snb::datagen::{generate, GeneratorConfig};
use ldbc_snb::queries::params::{Q2Params, Q9Params};
use ldbc_snb::queries::{complex, short, Engine};
use ldbc_snb::store::Store;

fn main() {
    // 1. Generate a deterministic social network: 1,000 persons, three
    //    years of correlated activity (friendships, forums, posts,
    //    comments, likes).
    let ds = generate(GeneratorConfig::with_persons(1_000).threads(4).seed(7)).unwrap();
    let stats = ds.stats();
    println!(
        "generated {} persons, {} friendships, {} messages, {} forums",
        stats.persons,
        stats.friends / 2,
        stats.messages,
        stats.forums
    );

    // 2. Bulk-load the first 32 months; the rest becomes the update stream.
    let store = Store::new();
    store.bulk_load(&ds);
    let updates = ds.update_stream();
    println!("bulk-loaded through {}; {} updates pending", ds.config.update_split, updates.len());

    // 3. Apply a few updates transactionally.
    for u in updates.iter().take(500) {
        store.apply(&u.op).unwrap();
    }

    // 4. Query: who is the best-connected person, and what's new in their
    //    feed?
    let snap = store.pinned();
    let busiest =
        (0..stats.persons).map(PersonId).max_by_key(|&p| snap.friends_iter(p).count()).unwrap();
    let profile = short::s1_profile(&snap, busiest).unwrap();
    println!(
        "\nbusiest person: {} {} ({} friends)",
        profile.first_name,
        profile.last_name,
        snap.friends_iter(busiest).count()
    );

    let feed = complex::q2::run(
        &snap,
        Engine::Intended,
        &Q2Params { person: busiest, max_date: SimTime::SIM_END },
    );
    println!("\ntheir friend feed (Q2, newest 5 of {}):", feed.len());
    for row in feed.iter().take(5) {
        let text: String = row.content.chars().take(56).collect();
        println!("  [{}] {} {}: {}", row.creation_date, row.first_name, row.last_name, text);
    }

    // 5. The same question over the 2-hop circle (Q9) touches far more
    //    data — this asymmetry is the heart of the benchmark's design.
    let q9 = complex::q9::run(
        &snap,
        Engine::Intended,
        &Q9Params { person: busiest, max_date: SimTime::SIM_END },
    );
    println!("\n2-hop feed (Q9) returns {} rows; newest: {}", q9.len(), q9[0].creation_date);
}
