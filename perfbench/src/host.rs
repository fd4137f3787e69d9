//! Provenance: the host, the code and the process's CPU time; and the host
//! probe that puts timed figures on a common footing.

use crate::metrics::Outcome;
use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU counters (`USER_HZ`,
/// 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// Records host and code provenance on `outcome`: core counts, CPU model,
/// git revision when the checkout is a repository, and a digest of the
/// program's sources that identifies the code even when it is not.
pub fn record_provenance(outcome: &mut Outcome) {
    outcome.note(
        "host.nproc",
        command_output("nproc", &[]).unwrap_or_else(unknown),
    );
    outcome.note(
        "host.available_parallelism",
        std::thread::available_parallelism()
            .map(|n| n.to_string())
            .unwrap_or_else(|_| unknown()),
    );
    outcome.note("host.cpu_model", cpu_model().unwrap_or_else(unknown));
    // Only a checkout that is itself a repository has a revision; asking git
    // elsewhere could report an enclosing repository's.
    let revision = Path::new(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "HEAD"]))
        .flatten();
    outcome.note("code.git_revision", revision.unwrap_or_else(unknown));
    outcome.note("code.source_digest", source_digest());
}

fn unknown() -> String {
    "unknown".to_string()
}

/// The trimmed standard output of a successful command, waited for.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// FNV-1a over the relative path and content of every file under `crates/`
/// plus the root `Cargo.lock`, in sorted path order, as 16 hex digits.
fn source_digest() -> String {
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        if let Ok(content) = std::fs::read(&file) {
            feed(file.to_string_lossy().as_bytes());
            feed(&content);
        }
    }
    format!("{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(kind) if kind.is_dir() => collect_files(&path, out),
            Ok(kind) if kind.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// User and system CPU seconds this process has used so far, from
/// `/proc/self/stat`; `None` where that file is unavailable.
pub fn cpu_seconds() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let user: f64 = fields.get(11)?.parse().ok()?;
    let system: f64 = fields.get(12)?.parse().ok()?;
    Some((user / USER_HZ, system / USER_HZ))
}

/// Words in the probe's table: 32 MiB, far beyond a core's private caches,
/// so the probe leans on the shared cache and memory as the program does.
const PROBE_WORDS: usize = 8 << 20;

/// Words per 64-byte cache line; the streaming pass reads one per line.
const WORDS_PER_LINE: usize = 16;

/// Independent random reads of the table per probe.
const PROBE_READS: usize = 100_000;

/// Entries of the probe's hash map, and lookups in it per probe: hashing
/// and probing scattered buckets, as the program's registry lookups do.
const PROBE_MAP_ENTRIES: u64 = 1 << 18;
const PROBE_MAP_LOOKUPS: usize = 100_000;

/// The fastest probe seen on a 2-vCPU Intel Xeon virtual machine, in
/// seconds. Timed figures are reported at the host speed where the probe
/// takes this long.
pub const PROBE_NOMINAL_S: f64 = 0.012;

/// A fixed computation on the shared cache and memory, timed between the
/// measured intervals of an invocation.
///
/// On a shared host, other tenants slow the whole memory system for minutes
/// at a time, by up to twice; no number of runs inside one invocation
/// averages that out. The probe's own code never changes, so its time is a
/// yardstick of the host's speed at that moment: each measured interval is
/// divided by the [`slowdown`] the probes just before and after it read.
pub struct HostProbe {
    table: Vec<u32>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    samples: Vec<f64>,
    heap_bytes: usize,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    /// Builds the probe's table and map (the same contents every time).
    pub fn new() -> Self {
        let before = bss_bench::alloc::current_bytes();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let table = (0..PROBE_WORDS)
            .map(|_| xorshift(&mut state) as u32)
            .collect();
        let map = (0..PROBE_MAP_ENTRIES)
            .map(|key| (map_key(key), key))
            .collect();
        // Room for every sample of an invocation, so recording one never
        // moves the heap peak.
        let samples = Vec::with_capacity(1 << 12);
        HostProbe {
            table,
            map,
            samples,
            heap_bytes: bss_bench::alloc::current_bytes().saturating_sub(before),
        }
    }

    /// Runs the probe once: a streaming pass over the table, reads at
    /// random positions, then lookups of random keys in the map. Records
    /// and returns its seconds.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut sum: u64 = self
            .table
            .iter()
            .step_by(WORDS_PER_LINE)
            .map(|&word| u64::from(word))
            .sum();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..PROBE_READS {
            let at = (xorshift(&mut state) % PROBE_WORDS as u64) as usize;
            sum = sum.wrapping_add(u64::from(self.table[at]));
        }
        for _ in 0..PROBE_MAP_LOOKUPS {
            let key = map_key(xorshift(&mut state) % PROBE_MAP_ENTRIES);
            sum = sum.wrapping_add(self.map.get(&key).copied().unwrap_or_default());
        }
        black_box(sum);
        let seconds = start.elapsed().as_secs_f64();
        self.samples.push(seconds);
        seconds
    }

    /// The probe's heap size in MiB, which a heap peak taken while the
    /// probe is alive includes.
    pub fn heap_mib(&self) -> f64 {
        self.heap_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Records the probe's figures on `outcome`.
    pub fn note(&self, outcome: &mut Outcome) {
        outcome.note("host.probe_samples", self.samples.len());
        let probe_s = median(&self.samples);
        outcome.note(
            "host.probe_s",
            format!(
                "median {probe_s:.6}, min {:.6}",
                self.samples.iter().copied().fold(f64::INFINITY, f64::min)
            ),
        );
        outcome.note(
            "host.slowdown",
            format!("median {:.4}", probe_s / PROBE_NOMINAL_S),
        );
    }
}

/// How much slower the host ran over an interval than where the probe takes
/// [`PROBE_NOMINAL_S`], from the probes just before and after it.
pub fn slowdown(probe_before_s: f64, probe_after_s: f64) -> f64 {
    (probe_before_s + probe_after_s) / 2.0 / PROBE_NOMINAL_S
}

fn map_key(index: u64) -> u64 {
    index.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}
