//! What a connection costs in OS threads. Thread counts are process-wide,
//! so this is the only test in its binary.
#![cfg(target_os = "linux")]

use oltapdb::client::Client;
use oltapdb::core::Database;
use oltapdb::server::{Server, ServerConfig};

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn an_idle_connection_costs_one_thread() {
    let server = Server::start(Database::new(), ServerConfig::default()).unwrap();
    let before = os_threads();
    // `connect` returns once the handshake is answered, so each
    // connection's server side is fully set up when it is counted.
    let clients: Vec<Client> = (0..32)
        .map(|_| Client::connect(server.local_addr()).unwrap())
        .collect();
    assert_eq!(os_threads() - before, clients.len());
}
