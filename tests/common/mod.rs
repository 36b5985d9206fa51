//! Helpers shared between the integration suites (each suite is its own crate and
//! uses some of them, hence the `allow`).
#![allow(dead_code)]

use std::sync::Arc;

use data_blocks::datablocks::Value;
use data_blocks::exec::Batch;
use data_blocks::query::net::{ClientConfig, WireClient, WireConfig, WireServer};
use data_blocks::query::QueryService;
use data_blocks::storage::{BlockId, BlockStore};

/// A wire server for `service` on a loopback port and one authenticated client
/// connected to it (32 MiB query budget, a window of four batches).
pub fn loopback(service: &Arc<QueryService>) -> (WireServer, WireClient) {
    let auth_token = String::from("loopback");
    let server = WireServer::serve(
        Arc::clone(service),
        "127.0.0.1:0",
        WireConfig {
            auth_token: auth_token.clone(),
            ..WireConfig::default()
        },
    )
    .expect("bind wire server");
    let config = ClientConfig {
        auth_token,
        budget_bytes: 32 << 20,
        window: 4,
    };
    let client = WireClient::connect(server.local_addr(), &config).expect("handshake");
    (server, client)
}

/// Compare two result batches. `exact` demands byte-identity for every value;
/// otherwise doubles are compared up to reassociation (relative 1e-9) because the
/// dynamic morsel→worker schedule reassociates parallel floating-point sums.
pub fn assert_batches_agree(label: &str, expected: &Batch, actual: &Batch, exact: bool) {
    assert_eq!(expected.len(), actual.len(), "{label}: row count");
    assert_eq!(expected.types(), actual.types(), "{label}: schema");
    for row in 0..expected.len() {
        let (e, a) = (expected.row(row), actual.row(row));
        for (col, (ev, av)) in e.iter().zip(&a).enumerate() {
            match (ev, av) {
                (Value::Double(x), Value::Double(y)) if !exact => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    assert!(
                        (x - y).abs() / scale < 1e-9,
                        "{label} row {row} col {col}: {x} vs {y}"
                    );
                }
                _ => assert_eq!(ev, av, "{label} row {row} col {col}"),
            }
        }
    }
}

/// Flip one byte of block `target`'s header section, behind the store's back,
/// and drop the cached copies: every page-in reads and verifies the header
/// section, so the next one fails its checksum whichever attributes it names.
/// The byte lies past the frame prefix, inside the section's checksummed range
/// `[16, header_len)`. Returns the frame's byte offset in its generation file —
/// the store must be append-only so far, so block `n` starts where blocks
/// `0..n` end.
pub fn corrupt_frame(store: &BlockStore, target: BlockId) -> u64 {
    use data_blocks::datablocks::frame::{header_len, FRAME_PREFIX_LEN};
    use std::os::unix::fs::FileExt as _;
    let offset: u64 = (0..target).map(|id| store.entry_len(id) as u64).sum();
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(store.path())
        .expect("open spill file raw");
    let mut prefix = [0u8; FRAME_PREFIX_LEN];
    file.read_exact_at(&mut prefix, offset)
        .expect("read frame prefix");
    let header_len = header_len(&prefix).expect("an intact frame prefix") as u64;
    assert!(
        header_len > FRAME_PREFIX_LEN as u64,
        "a header section past the prefix"
    );
    let poke = offset + (FRAME_PREFIX_LEN as u64 + header_len) / 2;
    let mut byte = [0u8];
    file.read_exact_at(&mut byte, poke).expect("read byte");
    byte[0] ^= 0xFF;
    file.write_all_at(&byte, poke).expect("flip byte");
    store.clear_cache();
    offset
}
