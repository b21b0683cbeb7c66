//! A simulated interactive session: the §4 random walk between complex
//! reads and short reads, the way a real social-network client would
//! navigate — open the feed, view a profile, open a post, read replies.
//!
//! ```sh
//! cargo run --release --example social_feed
//! ```

use ldbc_snb::core::rng::{Rng, Stream};
use ldbc_snb::core::{MessageId, PersonId, SimTime};
use ldbc_snb::datagen::{generate, GeneratorConfig};
use ldbc_snb::queries::params::Q9Params;
use ldbc_snb::queries::{complex, short, Engine};
use ldbc_snb::store::Store;

fn main() {
    let ds = generate(GeneratorConfig::with_persons(800).threads(4).seed(11)).unwrap();
    let store = Store::new();
    store.load_full(&ds);
    let snap = store.pinned();

    // The "logged-in user": someone with a decent circle.
    let me = (0..ds.persons.len() as u64)
        .map(PersonId)
        .max_by_key(|&p| snap.friends_iter(p).count())
        .unwrap();
    let profile = short::s1_profile(&snap, me).unwrap();
    println!(
        "logged in as {} {} from city #{}",
        profile.first_name, profile.last_name, profile.city
    );

    // Open the feed: Q9 over the 2-hop circle.
    let feed = complex::q9::run(
        &snap,
        Engine::Intended,
        &Q9Params { person: me, max_date: SimTime::SIM_END },
    );
    println!("\n== feed: {} entries ==", feed.len());
    for row in feed.iter().take(3) {
        println!("  {} {} · {}", row.first_name, row.last_name, row.creation_date);
    }

    // Random-walk into the content, P = 0.9, Δ = 0.15 (§4).
    let mut rng = Rng::for_entity(3, Stream::Workload, 0);
    let mut prob: f64 = 0.9;
    let mut person: Option<PersonId> = feed.first().map(|r| r.author);
    let mut message: Option<MessageId> = feed.first().map(|r| r.message);
    let mut hops = 0;
    println!("\n== random walk ==");
    while rng.chance(prob) {
        hops += 1;
        match (person, message) {
            (Some(p), _) if rng.chance(0.5) => {
                let friends = short::s3_friends(&snap, p);
                println!("  S3 friends of person {}: {} friends", p.raw(), friends.len());
                person = friends.first().map(|&(f, _)| f);
            }
            (_, Some(m)) => {
                let replies = short::s7_replies(&snap, m);
                println!("  S7 replies to message {}: {} replies", m.raw(), replies.len());
                if let Some(r) = replies.first() {
                    person = Some(r.author);
                    message = Some(r.comment);
                } else if let Some((forum, title, _)) = short::s6_forum(&snap, m) {
                    println!("  S6 forum of message {}: {} ({})", m.raw(), title, forum);
                    message = None;
                }
            }
            _ => break,
        }
        prob -= 0.15;
    }
    println!("walk ended after {hops} lookups (probability exhausted)");
}
