//! A fleet worker's heartbeats: the one thread a [`crate::server::Role::Worker`]
//! server runs beside its readiness loop.
//!
//! A worker *is* a standalone server — the coordinator dispatches jobs to it
//! with the ordinary client protocol, as wait-flagged `KGW1` `SUBMIT` frames
//! on one persistent connection — so everything the standalone server
//! guarantees (bounded queue, `BUSY` backpressure, byte-deterministic
//! payloads, drain-on-shutdown) holds per worker with no new code. That
//! connection carries every job the coordinator sends here, which is why a
//! worker has no per-connection request limit and why its write-queue bound
//! scales with its queue depth (see [`crate::server::ServerConfig`]). The
//! only addition is liveness: `HEARTBEAT <id> <addr>` every interval, which
//! doubles as registration — there is no separate enrolment step, and a
//! worker that restarts (or outlives a coordinator restart) re-registers
//! automatically on its next beat.

use crate::client::{Client, ClientError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Sends `HEARTBEAT <id> <addr>` to the coordinator every `interval` over a
/// persistent connection, re-dialling after an I/O or protocol error. A
/// missing or restarting coordinator is tolerated indefinitely: the worker
/// just keeps trying, and its first successful beat (re-)registers it. An
/// `ERR` reply keeps the connection: the peer answered, it only refused the
/// beat (it is not a coordinator, or the advertised address is not
/// dialable). The refusal goes to stderr when it first appears and whenever
/// its text changes, and the worker keeps beating, since a coordinator may
/// come up at that address later.
pub(crate) fn heartbeat_loop(
    coordinator: &str,
    worker_id: &str,
    addr: &str,
    interval: Duration,
    stop: &AtomicBool,
) {
    let sent = kecss_obs::counter("fleet_heartbeats_sent_total");
    let mut client: Option<Client> = None;
    let mut refusal: Option<String> = None;
    while !stop.load(Ordering::SeqCst) {
        if client.is_none() {
            client = Client::connect(coordinator)
                .and_then(|mut c| {
                    // Bound the reply read so a wedged coordinator cannot
                    // wedge the heartbeat thread past a few intervals.
                    c.set_read_timeout(Some(interval.max(Duration::from_millis(100)) * 4))?;
                    Ok(c)
                })
                .ok();
        }
        if let Some(c) = client.as_mut() {
            match c.heartbeat(worker_id, addr) {
                Ok(_word) => {
                    sent.inc();
                    refusal = None;
                }
                Err(ClientError::Server(message)) => {
                    if refusal.as_deref() != Some(message.as_str()) {
                        eprintln!("worker {worker_id}: coordinator {coordinator} refused the heartbeat: {message}");
                        refusal = Some(message);
                    }
                }
                Err(_) => client = None,
            }
        }
        // Sleep in small slices so shutdown is prompt even with long
        // intervals.
        let mut remaining = interval;
        while !remaining.is_zero() && !stop.load(Ordering::SeqCst) {
            let slice = remaining.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}
