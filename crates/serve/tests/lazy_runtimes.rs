//! A server that only ever runs `omp_for` jobs must not pay for the other
//! families' pools: their runtimes are never built, so their workers never
//! park, and the scraped `tpm_runtime_events_total` parks series for
//! `worksteal` and `actors` stay at zero while `forkjoin` shows the real
//! work.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tpm_core::JobRegistry;
use tpm_serve::{serve, Response, ServerConfig};
use tpm_sync::CancelToken;

fn registry() -> Arc<JobRegistry> {
    let mut reg = JobRegistry::new();
    reg.register(
        "sum",
        "sums 0..size under the requested model",
        1 << 20,
        |ctx| {
            ctx.exec.try_parallel_reduce(
                ctx.spec.model,
                0..ctx.spec.size,
                &CancelToken::new(),
                || 0.0,
                |a, b| a + b,
                |chunk, acc| *acc += chunk.map(|i| i as f64).sum::<f64>(),
            )
        },
    );
    Arc::new(reg)
}

/// The value of one exposition sample, or `None` when the series is absent.
fn sample(exposition: &str, series: &str) -> Option<f64> {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(series)?.trim().parse().ok())
}

#[test]
fn omp_for_traffic_never_parks_the_unused_pools() {
    let handle = serve(
        registry(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut call = |line: &str| -> Response {
        writer.write_all(line.as_bytes()).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        Response::parse(reply.trim()).expect("decodable reply")
    };

    // Idle gaps between jobs: an eagerly built pool would park through
    // them, and each job's stats delta would carry those parks into the
    // metrics.
    for id in 0..5 {
        let line = format!(
            "{{\"id\":{id},\"kernel\":\"sum\",\"model\":\"omp_for\",\"size\":1000,\"threads\":2}}\n"
        );
        match call(&line) {
            Response::Ok { value, .. } => assert_eq!(value, 499_500.0),
            other => panic!("job {id}: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let exposition = match call("{\"cmd\":\"metrics\"}\n") {
        Response::Metrics { exposition } => exposition,
        other => panic!("metrics: {other:?}"),
    };
    let series = |runtime: &str, event: &str| {
        format!("tpm_runtime_events_total{{runtime=\"{runtime}\",event=\"{event}\"}}")
    };
    assert!(
        sample(&exposition, &series("forkjoin", "chunks")).unwrap_or(0.0) > 0.0,
        "the omp_for pool ran the jobs:\n{exposition}"
    );
    for runtime in ["worksteal", "actors"] {
        let parks = sample(&exposition, &series(runtime, "parks")).unwrap_or(0.0);
        assert_eq!(
            parks, 0.0,
            "{runtime} was never used yet parked:\n{exposition}"
        );
    }
    handle.shutdown();
}
