//! A write-ahead log behind a real server. An update whose commit waits
//! for an fsync is acknowledged only after that wait; this test checks
//! that the acknowledged updates are on disk.

use snb_datagen::{generate, Dataset, GeneratorConfig};
use snb_driver::connector::StoreConnector;
use snb_driver::mix;
use snb_driver::scheduler::{run, DriverConfig};
use snb_net::{RemoteConnector, Server};
use snb_queries::Engine;
use snb_store::{Store, SyncPolicy};
use std::sync::{Arc, OnceLock};

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| generate(GeneratorConfig::with_persons(300).activity(0.5)).unwrap())
}

/// A server in front of `store`, bulk-loaded.
fn serve(store: Store) -> (Arc<Store>, Server) {
    store.bulk_load(dataset());
    let store = Arc::new(store);
    let connector = Arc::new(StoreConnector::new(Arc::clone(&store), Engine::Intended));
    let server = Server::bind("127.0.0.1:0", connector).unwrap();
    (store, server)
}

/// `(persons, forums, messages)` a store holds.
fn counts(store: &Store) -> (usize, usize, usize) {
    let stats = store.pinned().storage_stats();
    let forums = stats.tables.iter().find(|t| t.name == "forum").map_or(0, |t| t.rows);
    (stats.persons, forums, stats.messages)
}

/// The update stream goes over the wire with two partitions. Once the
/// deployment is gone, recovery from the bulk load plus the log holds
/// exactly the live store's persons, forums and messages, and every
/// appended record was made durable by some fsync.
#[test]
fn a_synced_wal_behind_the_server_recovers_every_acknowledged_update() {
    let ds = dataset();
    let path = std::env::temp_dir().join(format!("snb-net-durable-{}.wal", std::process::id()));
    let (store, server) = serve(Store::with_wal_policy(&path, SyncPolicy::default()).unwrap());
    let bulk = counts(&store);

    let items = mix::updates_only(ds);
    let remote = RemoteConnector::connect(server.local_addr().to_string()).unwrap();
    let config = DriverConfig { partitions: 2, ..DriverConfig::default() };
    let report = run(&items, &remote, &config).unwrap();
    assert_eq!(report.total_ops, items.len());
    drop(remote);
    drop(server);

    let live = counts(&store);
    assert!(live.0 > bulk.0 && live.1 > bulk.1 && live.2 > bulk.2, "{bulk:?} -> {live:?}");
    let c = store.counters();
    assert_eq!(c.wal_appends.get(), items.len() as u64, "every update committed");
    assert!(c.wal_fsyncs.get() >= 1);
    assert_eq!(c.wal_group_size.get(), c.wal_appends.get(), "every append made durable");
    assert_eq!(c.wal_sync_errors.get(), 0);
    drop(store); // the last handle: the clean close trims the preallocated tail

    let (recovered, recovery) = Store::recover(ds, &path).unwrap();
    assert_eq!(recovery.replayed, items.len() as u64);
    assert_eq!(recovery.truncated_bytes, 0);
    assert_eq!(counts(&recovered), live, "recovered (persons, forums, messages)");
    std::fs::remove_file(&path).unwrap();
}
