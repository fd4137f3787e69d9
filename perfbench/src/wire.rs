//! The `wire` workload: one `NetDriver`, its loopback peers, and the
//! benchmark's own `poll_once` loop on one thread.
//!
//! The peers' timers offer one exchange per peer per Δ, several times what
//! one loop sustains, so every sweep fires every peer and the exchange rate
//! measures the loop's capacity, not the schedule. Traffic crosses the
//! loopback interface only, never a real link.

use crate::host::{self, HostProbe};
use crate::metrics::{Kind, Outcome};
use crate::stats::{median, ratio};
use crate::trace::{self, Cloned, Population, RouteCounts, Tracer, Transit};
use crate::workload::WireSpec;
use bss_core::convergence::{ConvergenceOracle, NetworkConvergence};
use bss_net::codec::{self, MessageKind, WireMessage};
use bss_net::{DriverConfig, NetDriver, NetTraffic, PeerHandle};
use bss_util::descriptor::Descriptor;
use bss_util::rng::SimRng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How long the loop sleeps after a sweep that found no work.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Completeness (present over expected leaf and prefix entries) the peers'
/// final tables must reach.
const MIN_COMPLETENESS: f64 = 0.99;

/// XOR-folded into the seed for the replay's random stream.
const REPLAY_SALT: u64 = 0x7769_7265_2121_2121;

fn driver_config(spec: &WireSpec, seed: u64) -> DriverConfig {
    DriverConfig {
        size: spec.peers,
        params: spec.params(),
        contacts_per_peer: spec.contacts_per_peer,
        seed,
    }
}

fn note_spec(spec: &WireSpec, seed: u64, outcome: &mut Outcome) {
    outcome.note("workload", "wire");
    outcome.note("seed", seed);
    outcome.note("params.peers", spec.peers);
    outcome.note("params.cycle_millis", spec.cycle_millis);
    outcome.note("params.contacts_per_peer", spec.contacts_per_peer);
    outcome.note("params.warmup_s", spec.warmup_s);
    outcome.note("wire.offered_exchanges_per_s", spec.offered_per_s());
    outcome.note(
        "wire.link",
        "loopback only: datagrams never crossed a real network link",
    );
}

/// Polls until `seconds` have passed, idling briefly after empty sweeps.
fn poll_for(driver: &mut NetDriver, seconds: f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        if !driver.poll_once() {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

fn exchanges(handles: &[PeerHandle]) -> u64 {
    handles.iter().map(PeerHandle::exchanges_initiated).sum()
}

/// Binds `count` drivers one after the other (each dropped before the next
/// binds, closing its sockets) and returns the last with every bind time.
/// The heap peak is rearmed before the last bind.
fn bind(spec: &WireSpec, seed: u64, count: usize) -> std::io::Result<(NetDriver, Vec<f64>)> {
    let mut times = Vec::new();
    let mut driver = None;
    for k in 0..count.max(1) {
        drop(driver.take());
        if k + 1 == count.max(1) {
            bss_bench::alloc::reset_peak();
        }
        let start = Instant::now();
        driver = Some(NetDriver::bind(driver_config(spec, seed))?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((driver.expect("bound at least once"), times))
}

/// The traffic and CPU counters at one instant.
struct Mark {
    at: Instant,
    exchanges: u64,
    traffic: NetTraffic,
    cpu: Option<(f64, f64)>,
}

impl Mark {
    fn take(driver: &NetDriver, handles: &[PeerHandle]) -> Self {
        Mark {
            at: Instant::now(),
            exchanges: exchanges(handles),
            traffic: driver.stats().snapshot(),
            cpu: host::cpu_seconds(),
        }
    }
}

/// One final sweep receives everything sent before it (loopback delivers
/// within `send_to`); what was sent before it and never received is lost.
/// Returns the lost count and the counters after the sweep.
fn drain(driver: &mut NetDriver) -> (u64, NetTraffic) {
    let before = driver.stats().snapshot();
    driver.poll_once();
    let after = driver.stats().snapshot();
    (
        before
            .datagrams_sent
            .saturating_sub(after.datagrams_received),
        after,
    )
}

/// Completeness of the peers' tables by the convergence oracle over their
/// state snapshots.
fn completeness(spec: &WireSpec, handles: &[PeerHandle]) -> f64 {
    let oracle = ConvergenceOracle::new(handles.iter().map(PeerHandle::id), &spec.params());
    let mut aggregate = NetworkConvergence::default();
    for handle in handles {
        aggregate.accumulate(oracle.measure_node(&handle.state_snapshot()));
    }
    let expected = (aggregate.leaf_total + aggregate.prefix_total) as f64;
    let missing = (aggregate.leaf_missing + aggregate.prefix_missing) as f64;
    1.0 - ratio(missing, expected)
}

/// The output checks every wire invocation makes after its drain, plus the
/// failure counts; returns `(datagrams attempted, failed)`.
fn check_wire(
    spec: &WireSpec,
    driver: &mut NetDriver,
    handles: &[PeerHandle],
    outcome: &mut Outcome,
) -> (u64, u64) {
    let (lost, traffic) = drain(driver);
    let sent_before_drain = traffic.datagrams_sent;
    let failed = traffic.send_failures + traffic.decode_failures + lost;
    outcome.check(
        "no_decode_failures",
        traffic.decode_failures == 0,
        format!("{} decode failures", traffic.decode_failures),
    );
    let idle = handles
        .iter()
        .filter(|h| h.exchanges_initiated() == 0)
        .count();
    outcome.check(
        "every_peer_initiated",
        idle == 0,
        format!(
            "{idle} of {} peers never initiated an exchange",
            handles.len()
        ),
    );
    let complete = completeness(spec, handles);
    outcome.check(
        "tables_complete",
        complete >= MIN_COMPLETENESS,
        format!("{complete:.6} of expected entries present (need {MIN_COMPLETENESS})"),
    );
    outcome.note("wire.datagrams_lost", lost);
    outcome.note("wire.send_failures", traffic.send_failures);
    (sent_before_drain, failed)
}

/// The untraced invocation: set-up samples from repeated binds, a warm-up,
/// then throughput sub-windows until `seconds` have passed (at least one).
/// The host probe runs before the binds and between windows, and every
/// timed interval is taken at nominal host speed by the probes around it. The
/// rate is the exchanges of every window over their adjusted time.
pub fn timed(spec: &WireSpec, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut outcome = Outcome::default();
    host::record_provenance(&mut outcome);
    note_spec(spec, seed, &mut outcome);
    let mut probe = HostProbe::new();
    let before_binds = probe.sample();
    let (mut driver, setup) = match bind(spec, seed, spec.setup_binds) {
        Ok(bound) => bound,
        Err(error) => {
            outcome.check("bind", false, error.to_string());
            return outcome;
        }
    };
    let after_binds = probe.sample();
    let handles = driver.handles();
    poll_for(&mut driver, spec.warmup_s);

    let first = Mark::take(&driver, &handles);
    // Exchanges, seconds and the probe just before each window.
    let mut windows = Vec::new();
    loop {
        let probe_s = probe.sample();
        let start = Mark::take(&driver, &handles);
        poll_for(&mut driver, spec.window_s);
        let end = Mark::take(&driver, &handles);
        windows.push((
            (end.exchanges - start.exchanges) as f64,
            end.at.duration_since(start.at).as_secs_f64(),
            probe_s,
        ));
        if started.elapsed().as_secs_f64() + spec.window_s > seconds {
            break;
        }
    }
    let last_probe_s = probe.sample();
    let last = Mark::take(&driver, &handles);
    let window_s = last.at.duration_since(first.at).as_secs_f64();
    let sent = last.traffic.datagrams_sent - first.traffic.datagrams_sent;
    let (attempted, failed) = check_wire(spec, &mut driver, &handles, &mut outcome);
    let peak_mib = bss_bench::alloc::peak_kib() as f64 / 1024.0 - probe.heap_mib();
    drop(driver);

    let exchanges: f64 = windows.iter().map(|&(n, _, _)| n).sum();
    let raw_s: f64 = windows.iter().map(|&(_, s, _)| s).sum();
    let adjusted_s: f64 = windows
        .iter()
        .enumerate()
        .map(|(k, &(_, s, before))| {
            let after = windows.get(k + 1).map_or(last_probe_s, |w| w.2);
            s / host::slowdown(before, after)
        })
        .sum();
    let rates: Vec<f64> = windows.iter().map(|&(n, s, _)| ratio(n, s)).collect();
    outcome.note("windows", windows.len());
    outcome.note("setup_samples", setup.len());
    probe.note(&mut outcome);
    outcome.note(
        "wire.achieved_exchanges_per_s",
        format!(
            "unadjusted: {:.1} over every window, window median {:.1}, over {window_s:.2} s",
            ratio(exchanges, raw_s),
            median(&rates)
        ),
    );
    outcome.note("unadjusted", format!("setup_s {:.6}", median(&setup)));
    let capacity = ratio(exchanges, adjusted_s);
    outcome.push(
        "setup_s",
        "s",
        Kind::Timed,
        median(&setup) / host::slowdown(before_binds, after_binds),
    );
    outcome.push("wire_exchanges_per_s", "1/s", Kind::Timed, capacity);
    outcome.push("throughput_per_s", "1/s", Kind::Timed, capacity);
    outcome.push(
        "wire_datagrams_per_s",
        "1/s",
        Kind::Timed,
        ratio(sent as f64, window_s),
    );
    outcome.push("peak_heap_mib", "MiB", Kind::Timed, peak_mib);
    outcome.push(
        "failed_frac",
        "frac",
        Kind::Timed,
        ratio(failed as f64, attempted as f64),
    );
    outcome.attempted = attempted;
    outcome.failed = failed;
    outcome
}

/// The wire transit: every composed message is wrapped in a `WireMessage`,
/// encoded and decoded, as the driver does per datagram.
#[derive(Default)]
struct CodecTransit {
    datagrams: u64,
    decode_failures: u64,
}

impl Transit<SocketAddr> for CodecTransit {
    fn carry(
        &mut self,
        sender: Descriptor<SocketAddr>,
        message: Vec<Descriptor<SocketAddr>>,
        request: bool,
        tracer: &mut Tracer,
    ) -> Vec<Descriptor<SocketAddr>> {
        let kind = if request {
            MessageKind::Request
        } else {
            MessageKind::Response
        };
        let wire = WireMessage::unstamped(kind, sender, message);
        let bytes = tracer.span("codec.encode", || codec::encode(&wire));
        self.datagrams += 1;
        match tracer.span("codec.decode", || codec::decode(&bytes)) {
            Ok(decoded) => decoded.descriptors,
            Err(_) => {
                self.decode_failures += 1;
                wire.descriptors
            }
        }
    }
}

/// One measured half of a traced invocation: a fresh driver, a warm-up,
/// then `traced_window_s` of polling, with a span around every sweep when
/// `tracer` is given. Returns the driver, its handles and the window's
/// first and last marks.
fn window(
    spec: &WireSpec,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> std::io::Result<(NetDriver, Vec<PeerHandle>, Mark, Mark)> {
    let (mut driver, _) = bind(spec, seed, 1)?;
    let handles = driver.handles();
    poll_for(&mut driver, spec.warmup_s);
    let first = Mark::take(&driver, &handles);
    let deadline = first.at + Duration::from_secs_f64(spec.traced_window_s);
    while Instant::now() < deadline {
        let worked = match tracer.as_deref_mut() {
            Some(tracer) => {
                tracer.next_operation();
                tracer.span("driver.sweep", || driver.poll_once())
            }
            None => driver.poll_once(),
        };
        if !worked {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    let last = Mark::take(&driver, &handles);
    Ok((driver, handles, first, last))
}

/// The exchange rate of one untraced window on a fresh driver.
fn untraced_rate(spec: &WireSpec, seed: u64) -> std::io::Result<f64> {
    let (_driver, _, first, last) = window(spec, seed, None)?;
    Ok(ratio(
        (last.exchanges - first.exchanges) as f64,
        last.at.duration_since(first.at).as_secs_f64(),
    ))
}

/// The traced invocation of `wire`: untraced and traced windows on fresh
/// drivers, then a replay of exchanges, codec round trips and convergence
/// measurements over the traced driver's peer states.
pub fn traced(spec: &WireSpec, seed: u64) -> Outcome {
    let mut outcome = Outcome::default();
    host::record_provenance(&mut outcome);
    note_spec(spec, seed, &mut outcome);
    // Untraced, traced, untraced again: bracketing the traced window keeps
    // drift of the host's speed out of the tracing overhead.
    let mut tracer = Tracer::default();
    let windows = untraced_rate(spec, seed).and_then(|before| {
        let traced = window(spec, seed, Some(&mut tracer))?;
        Ok((before, traced, untraced_rate(spec, seed)?))
    });
    let (before, (mut driver, handles, first, last), after) = match windows {
        Ok(windows) => windows,
        Err(error) => {
            outcome.check("bind", false, error.to_string());
            return outcome;
        }
    };
    let plain = (before + after) / 2.0;
    let window_s = last.at.duration_since(first.at).as_secs_f64();
    let exchanged = (last.exchanges - first.exchanges) as f64;
    let sent = (last.traffic.datagrams_sent - first.traffic.datagrams_sent) as f64;
    let bytes = (last.traffic.bytes_sent - first.traffic.bytes_sent) as f64;
    let (user, system) = match (first.cpu, last.cpu) {
        (Some((u0, s0)), Some((u1, s1))) => (u1 - u0, s1 - s0),
        _ => (0.0, 0.0),
    };
    let traced_rate = ratio(exchanged, window_s);
    let (attempted, failed) = check_wire(spec, &mut driver, &handles, &mut outcome);
    drop(driver);

    // Replay over the traced driver's final peer states.
    let population = Population::new(handles.iter().map(PeerHandle::state_snapshot).collect());
    let now = population
        .nodes
        .iter()
        .map(|n| n.own_descriptor().timestamp())
        .max()
        .unwrap_or(0);
    let mut rng = SimRng::seed_from(seed ^ REPLAY_SALT);
    let mut transit = CodecTransit::default();
    let counts = trace::replay_exchanges(
        &population,
        &mut Cloned(&population),
        &mut transit,
        spec.replay_exchanges,
        now,
        &mut rng,
        &mut tracer,
    );
    let oracle_build_s = trace::replay_convergence(
        &population,
        &spec.params(),
        spec.peers,
        &mut rng,
        &mut tracer,
    );
    outcome.check(
        "replay_decodes",
        transit.decode_failures == 0,
        format!(
            "{} of {} replayed datagrams failed to decode",
            transit.decode_failures, transit.datagrams
        ),
    );

    outcome.push_unused_layers(&[
        "engine.plan_s",
        "engine.execute_s",
        "engine.commit_s",
        "engine.measure_s",
        "engine.exchanges",
        "convergence.measured_nodes",
    ]);
    let layers = tracer.layers();
    let replayed_us =
        trace::push_layer_metrics(&mut outcome, &tracer, &counts, &RouteCounts::default());
    let select_us = ratio(
        layers.get("node.select_peer").map_or(0.0, |l| l.self_s) * 1e6,
        counts.exchanges as f64,
    );
    let sweeps = layers.get("driver.sweep").copied().unwrap_or_default();
    outcome.push(
        "convergence.oracle_build_s",
        "s",
        Kind::Layer,
        oracle_build_s,
    );
    outcome.push(
        "codec.bytes_per_datagram",
        "bytes",
        Kind::Layer,
        ratio(bytes, sent),
    );
    outcome.push(
        "driver.sweep_ms",
        "ms",
        Kind::Layer,
        ratio(sweeps.self_s * 1e3, sweeps.calls as f64),
    );
    outcome.push(
        "driver.datagrams_per_s",
        "1/s",
        Kind::Layer,
        ratio(sent, window_s),
    );
    outcome.push(
        "driver.datagrams_per_exchange",
        "count",
        Kind::Layer,
        ratio(sent, exchanged),
    );
    let cpu_us = ratio((user + system) * 1e6, exchanged);
    outcome.push("driver.cpu_us_per_exchange", "us", Kind::Layer, cpu_us);
    outcome.push(
        "driver.sys_cpu_frac",
        "frac",
        Kind::Layer,
        ratio(system, user + system),
    );
    // The loop's CPU per exchange against the replayed protocol and codec
    // work per exchange; the rest is syscalls, sampling gossip and the loop.
    let attributed_us = replayed_us + select_us;
    outcome.push(
        "exchange.unattributed_frac",
        "frac",
        Kind::Layer,
        ratio(cpu_us - attributed_us, cpu_us),
    );
    outcome.push(
        "trace.overhead_frac",
        "frac",
        Kind::Layer,
        ratio(plain, traced_rate) - 1.0,
    );
    outcome.note("trace.untraced_exchanges_per_s", format!("{plain:.1}"));
    outcome.note("trace.traced_exchanges_per_s", format!("{traced_rate:.1}"));
    outcome.note(
        "trace.replayed_us_per_exchange",
        format!("{attributed_us:.3}"),
    );
    outcome.attempted = attempted + counts.exchanges;
    outcome.failed = failed + transit.decode_failures;
    match tracer.write_out("spans-wire.tsv") {
        Ok(path) => outcome.note("trace.spans_file", path),
        Err(error) => outcome.note("trace.spans_file", format!("not written: {error}")),
    }
    outcome
}
