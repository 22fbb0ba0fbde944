//! Serve a generated interface over HTTP: `cargo run --example serve
//! [--release] [port]`.
//!
//! Registers the covid workload, boots `pi2::server` on the given port
//! (default: an ephemeral one), prints a curl transcript, and serves until
//! killed. See README.md § "Serving PI2" for the endpoint table and
//! backpressure semantics.

use pi2::server::ServerConfig;
use pi2::{GenerationConfig, MctsConfig, Pi2, Pi2Service};
use pi2_workloads::{catalog, log, LogKind};
use std::sync::Arc;

fn main() {
    let port: u16 = std::env::args()
        .nth(1)
        .and_then(|p| p.parse().ok())
        .unwrap_or(0);

    println!("generating the covid interface…");
    let l = log(LogKind::Covid);
    let refs: Vec<&str> = l.queries.iter().map(|s| s.as_str()).collect();
    let config = GenerationConfig {
        mcts: MctsConfig {
            workers: 2,
            max_iterations: 120,
            early_stop: 25,
            seed: 42,
            ..MctsConfig::default()
        },
        mapping: Default::default(),
    };
    let generation = Pi2::new(catalog())
        .generate_with(&refs, &config)
        .expect("covid generates");
    println!(
        "  {} views, {} interactions, cost {:.3}",
        generation.interface.views.len(),
        generation.interface.interactions.len(),
        generation.cost
    );

    let service = Arc::new(Pi2Service::new());
    service
        .register_generation("covid", generation)
        .expect("register");
    let server = pi2::serve(
        service,
        ServerConfig {
            addr: format!("127.0.0.1:{port}"),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    println!("\nserving on http://{addr}  (ctrl-c to stop)\n");
    println!("try:");
    println!("  curl http://{addr}/healthz");
    println!("  curl http://{addr}/metrics");
    println!(
        "  curl -d '{{\"v\":1,\"type\":\"describe\",\"workload\":\"covid\"}}' http://{addr}/v1"
    );
    println!("  curl -d '{{\"v\":1,\"type\":\"open\",\"workload\":\"covid\"}}' http://{addr}/v1");
    println!("  # …take the \"session\" id from the opened response, then:");
    println!(
        "  curl -d '{{\"v\":1,\"type\":\"event\",\"session\":1,\
         \"kind\":\"select\",\"interaction\":0,\"option\":1}}' http://{addr}/v1"
    );
    println!("  curl -d '{{\"v\":1,\"type\":\"close\",\"session\":1}}' http://{addr}/v1");

    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}
