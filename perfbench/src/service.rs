//! The `service-durable` workload: the Fig. 4 testbed trace through
//! the durable `Service` core under MLF-H, as a closed loop, with a
//! crash copy taken between two snapshots and recovered from.

use crate::checks;
use crate::measure::{self, Metric, Phase};
use crate::probe::{Log, Probe};
use crate::stats;
use crate::{Opts, Out};
use metrics::RunMetrics;
use mlfs_service::durability::{snapshot, wal};
use mlfs_service::{
    AdmissionPolicy, DurabilityConfig, FsyncPolicy, RecoveryReport, Service, ServiceSnapshot,
};
use mlfs_sim::engine::StepOutcome;
use mlfs_sim::experiments::{fig4, Experiment};
use obs::Counter;
use simcore::SimTime;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::JobSpec;

/// Fig. 4 testbed: load multiplier and time compression.
const LOAD: (f64, f64) = (1.0, 16.0);
/// Snapshot period in rounds. The crash copy is taken between the
/// round-200 and round-300 snapshots, at a round the seed picks from
/// the last three quarters of the gap, so WAL records follow the
/// snapshot.
const SNAPSHOT_EVERY: u64 = 100;

fn crash_round(seed: u64) -> u64 {
    let gap = SNAPSHOT_EVERY * 3 / 4;
    3 * SNAPSHOT_EVERY - gap + seed % gap
}
/// WAL group fsync: one fsync per this many appends.
const FSYNC_EVERY: u32 = 32;
/// Set-ups and recoveries per run (their medians are reported).
const SETUPS: usize = 100;
const RECOVERIES: usize = 3;
/// Tail percentile for rounds and submits. Snapshot ticks are 1% of
/// rounds and wait on the disk's fsync: a percentile among them moved
/// by a fifth between runs, so the tail is taken below them.
const TAIL_PCT: f64 = 98.0;
/// The scheduler under service.
const SCHEDULER: &str = "MLF-H";

/// Admission is on, with bounds this load never reaches.
fn admission() -> AdmissionPolicy {
    AdmissionPolicy {
        max_backlog: 1 << 30,
        h_s: 1e12,
    }
}

fn durability(dir: &Path) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(dir);
    d.fsync = FsyncPolicy::EveryN(FSYNC_EVERY);
    d.snapshot_every_rounds = SNAPSHOT_EVERY;
    d.keep_snapshots = 3;
    d
}

/// Copy every file of `src` into a fresh `dst`.
fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Service-layer samples of a phase.
#[derive(Default)]
struct SvcStats {
    submit_us: Vec<f64>,
    tick_plain_us: Vec<f64>,
    tick_snapshot_ms: Vec<f64>,
    render_ms: Vec<f64>,
    render_bytes: Vec<f64>,
    wal_appends: u64,
    wal_fsyncs: u64,
    wal_bytes: u64,
}

struct Workload {
    exp: Experiment,
    crash_round: u64,
    seed: u64,
    work: PathBuf,
    specs: Vec<JobSpec>,
    fresh: usize,
}

/// A built service, ready for its episode.
struct Live {
    svc: Service,
    log: Log,
    dir: PathBuf,
}

impl Workload {
    fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.exp.sim.max_time
    }

    fn dir(&mut self, tag: &str) -> PathBuf {
        self.fresh += 1;
        self.work.join(format!("{tag}-{}", self.fresh))
    }

    /// Trace generation, scheduler construction and service build.
    fn prepare(&mut self, traced: bool) -> Result<(Live, Duration, Duration), String> {
        let dir = self.dir("live");
        let t = Instant::now();
        let specs = self.exp.jobs();
        let generate = t.elapsed();
        let t = Instant::now();
        let sched = self.exp.trained_scheduler(SCHEDULER, self.seed);
        let warmup = t.elapsed();
        let (probe, log) = Probe::new(sched, traced);
        let mut d = durability(&dir);
        if traced {
            d.trace = obs::TraceConfig::Jsonl {
                path: self.work.join(format!("wal-trace-{}.jsonl", self.fresh)),
            };
        }
        let svc = Service::builder(self.exp.sim.clone())
            .admission(admission())
            .durability(d)
            .build(Box::new(probe))
            .map_err(|e| format!("service build: {e}"))?;
        if self.specs.is_empty() {
            self.specs = specs;
            // Stable: jobs arriving together keep the batch engine's order.
            self.specs.sort_by_key(|s| s.arrival);
        }
        Ok((Live { svc, log, dir }, generate, warmup))
    }

    /// Drive `svc` as one closed-loop caller, submitting `specs[from..]`
    /// each just before the round it arrives in, until the service
    /// drains. Copies the durable state to `crash` at the crash round.
    #[allow(clippy::too_many_arguments)]
    fn serve(
        &self,
        live: Live,
        from: usize,
        traced: bool,
        crash: Option<&Path>,
        phase: &mut Phase,
        sx: &mut SvcStats,
        errors: &mut Vec<String>,
    ) -> RunMetrics {
        let Live { mut svc, log, dir } = live;
        let first_arrival = self.specs.get(from).map(|s| s.arrival);
        let mut next = self.specs.iter().skip(from).peekable();
        loop {
            let upcoming = match (svc.rounds(), first_arrival) {
                (0, Some(a)) => a,
                _ => svc.now(),
            };
            while next
                .peek()
                .is_some_and(|s| s.arrival <= upcoming || svc.pending_arrivals() == 0)
            {
                let spec = next.next().expect("peeked").clone();
                let id = spec.id;
                let t = Instant::now();
                let accepted = svc.submit(spec).accepted();
                let dt = t.elapsed();
                phase.busy += dt;
                sx.submit_us.push(dt.as_secs_f64() * 1e6);
                if !accepted {
                    errors.push(format!(
                        "job {} refused under bounds the load never reaches",
                        id.0
                    ));
                }
            }
            let t = Instant::now();
            let out = svc.tick();
            let dt = t.elapsed();
            let (decide, check) = log.lock().take_round();
            phase.round(dt, decide, check, traced);
            let round = svc.rounds();
            let prog = dt.saturating_sub(Duration::from_nanos(check));
            if round % SNAPSHOT_EVERY == 0 {
                sx.tick_snapshot_ms.push(prog.as_secs_f64() * 1e3);
                if traced {
                    let t = Instant::now();
                    let body = serde_json::to_string(&svc.snapshot()).map(|b| b.len());
                    sx.render_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    sx.render_bytes.push(body.unwrap_or(0) as f64);
                }
            } else {
                sx.tick_plain_us.push(prog.as_secs_f64() * 1e6);
            }
            if round == self.crash_round {
                if let Some(dst) = crash {
                    if let Err(e) = copy_dir(&dir, dst) {
                        errors.push(format!("crash copy: {e}"));
                    }
                }
            }
            if out != StepOutcome::Continue {
                if next.peek().is_some() {
                    errors.push(format!(
                        "service stopped ({out:?}) with jobs left to submit"
                    ));
                }
                break;
            }
        }
        if let Some(e) = svc.durability_error() {
            errors.push(format!("durability: {e}"));
        }
        if let Some(d) = svc.durability_telemetry() {
            sx.wal_appends += d.count(Counter::WalAppends);
            sx.wal_fsyncs += d.count(Counter::WalFsyncs);
        }
        let t = Instant::now();
        let m = svc.finish();
        let fin = t.elapsed();
        phase.busy += fin;
        phase.finalize += fin;
        phase.outcome(&m);
        errors.extend(measure::drain(&log, &m, phase));
        if let Err(e) = checks::run_metrics(&m, &self.specs, self.horizon()) {
            errors.push(e);
        }
        let _ = std::fs::remove_dir_all(&dir);
        m
    }

    /// Closed-loop episodes for `seconds`; the first one also leaves
    /// the crash copy behind.
    fn phase(
        &mut self,
        mut ready: Vec<Live>,
        seconds: f64,
        traced: bool,
        crash: Option<&Path>,
        errors: &mut Vec<String>,
    ) -> (Phase, SvcStats, Option<RunMetrics>) {
        ready.reverse();
        let mut phase = Phase::default();
        let mut sx = SvcStats::default();
        let mut first: Option<RunMetrics> = None;
        let started = Instant::now();
        while phase.wants_more(started, seconds, 1) {
            let live = match ready.pop() {
                Some(l) => l,
                None => match self.prepare(traced) {
                    Ok((l, ..)) => l,
                    Err(e) => {
                        errors.push(e);
                        break;
                    }
                },
            };
            let copy = if first.is_none() { crash } else { None };
            let t = Instant::now();
            let m = self.serve(live, 0, traced, copy, &mut phase, &mut sx, errors);
            phase.wall += t.elapsed();
            phase.episode_done();
            match &first {
                None => first = Some(m),
                Some(f) => {
                    if let Err(e) = checks::same_run("repeated episode", f, &m) {
                        errors.push(e);
                    }
                }
            }
        }
        if traced {
            sx.wal_bytes = wal_bytes(&self.work);
        }
        (phase, sx, first)
    }

    /// Recover from fresh copies of the crash directory; drain the last
    /// recovery and check it against the uninterrupted run.
    fn recover(
        &mut self,
        crash: &Path,
        live_run: &RunMetrics,
        errors: &mut Vec<String>,
    ) -> (f64, RecoveryReport) {
        let mut secs = Vec::new();
        let mut last = None;
        for _ in 0..RECOVERIES {
            let dir = self.dir("recover");
            if let Err(e) = copy_dir(crash, &dir) {
                errors.push(format!("copy crash directory: {e}"));
                return (0.0, RecoveryReport::default());
            }
            let (probe, log) = Probe::new(self.exp.trained_scheduler(SCHEDULER, self.seed), false);
            let t = Instant::now();
            let got = Service::builder(self.exp.sim.clone())
                .admission(admission())
                .durability(durability(&dir))
                .recover(Box::new(probe));
            secs.push(t.elapsed().as_secs_f64());
            match got {
                Ok((svc, report)) => last = Some((Live { svc, log, dir }, report)),
                Err(e) => errors.push(format!("recovery: {e}")),
            }
        }
        let Some((live, report)) = last else {
            return (0.0, RecoveryReport::default());
        };
        let want_snapshot = self.crash_round / SNAPSHOT_EVERY * SNAPSHOT_EVERY;
        if report.snapshot_round != Some(want_snapshot) || report.resumed_round > self.crash_round {
            errors.push(format!(
                "recovery took {report:?}, expected the round-{want_snapshot} snapshot"
            ));
        }
        if report.wal_records_replayed == 0 {
            errors.push("recovery replayed no WAL record after the snapshot".into());
        }
        let from = usize::try_from(report.resumed_accepted).unwrap_or(usize::MAX);
        let drained = self.serve(
            live,
            from,
            false,
            None,
            &mut Phase::default(),
            &mut SvcStats::default(),
            errors,
        );
        if let Err(e) = checks::same_run(
            "recovered-then-drained vs uninterrupted",
            live_run,
            &drained,
        ) {
            errors.push(e);
        }
        (stats::median(&secs), report)
    }

    /// The batch engine on the same trace must equal the service run.
    fn batch_equals(&self, live_run: &RunMetrics, errors: &mut Vec<String>) {
        let sched = self.exp.trained_scheduler(SCHEDULER, self.seed);
        let (m, errs) = measure::batch_run(
            &self.exp.sim,
            &self.specs,
            sched,
            false,
            &mut Phase::default(),
        );
        errors.extend(errs);
        if let Err(e) = checks::same_run("uninterrupted service vs batch engine", &m, live_run) {
            errors.push(e);
        }
    }

    /// Recovery taken apart through the public readers, on one more
    /// copy: WAL scan, snapshot load, body parse, state restore, and the
    /// replay of the WAL records after the snapshot through `tick` and
    /// `submit` (the restored service has no durable store, so nothing
    /// is logged again).
    fn recovery_layers(
        &mut self,
        crash: &Path,
        report: &RecoveryReport,
        errors: &mut Vec<String>,
    ) -> Vec<Metric> {
        let dir = self.dir("layers");
        if let Err(e) = copy_dir(crash, &dir) {
            errors.push(format!("copy crash directory: {e}"));
            return Vec::new();
        }
        let t = Instant::now();
        let scan = wal::read_wal(&dir.join("wal.log"));
        let read_wal = t.elapsed();
        let records = match scan {
            Ok(scan) => scan.records,
            Err(e) => {
                errors.push(format!("read_wal: {e}"));
                Vec::new()
            }
        };
        let t = Instant::now();
        let file = snapshot::list_snapshots(&dir)
            .ok()
            .and_then(|s| s.first().and_then(|(_, p)| snapshot::load_snapshot(p)));
        let load = t.elapsed();
        let Some(file) = file else {
            errors.push("no valid snapshot in the crash copy".into());
            return Vec::new();
        };
        let t = Instant::now();
        let parsed = serde_json::from_str::<ServiceSnapshot>(&file.body);
        let parse = t.elapsed();
        let Ok(snap) = parsed else {
            errors.push("snapshot body did not parse".into());
            return Vec::new();
        };
        let sched = self.exp.trained_scheduler(SCHEDULER, self.seed);
        let t = Instant::now();
        let mut svc = Service::restore(self.exp.sim.clone(), snap, sched, Some(admission()));
        let restore = t.elapsed();
        let replayed = usize::try_from(report.wal_records_replayed).unwrap_or(usize::MAX);
        let t = Instant::now();
        for rec in records.iter().skip(records.len().saturating_sub(replayed)) {
            while svc.rounds() < rec.round && svc.tick() == StepOutcome::Continue {}
            if !svc.submit(rec.spec.clone()).accepted() {
                errors.push(format!("replay of job {} refused", rec.spec.id.0));
            }
        }
        let replay = t.elapsed();
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mb = file.body.len() as f64 / (1024.0 * 1024.0);
        vec![
            ("durability.read_wal_ms".into(), ms(read_wal), "ms"),
            ("durability.load_snapshot_ms".into(), ms(load), "ms"),
            ("durability.parse_ms".into(), ms(parse), "ms"),
            (
                "durability.parse_mb_per_s".into(),
                mb / parse.as_secs_f64(),
                "MiB/s",
            ),
            ("durability.restore_ms".into(), ms(restore), "ms"),
            ("durability.replay_ms".into(), ms(replay), "ms"),
            (
                "durability.wal_records_replayed".into(),
                report.wal_records_replayed as f64,
                "count",
            ),
        ]
    }
}

/// Bytes of every WAL append in the traced phase's durability traces.
fn wal_bytes(work: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(work) else {
        return 0;
    };
    let mut bytes = 0u64;
    for entry in entries.flatten() {
        let path = entry.path();
        if !path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("wal-trace-"))
        {
            continue;
        }
        if let Ok(reader) = obs::TraceReader::open(&path) {
            for ev in reader {
                if let obs::TraceEvent::WalAppend { bytes: b, .. } = ev {
                    bytes += u64::from(b);
                }
            }
        }
    }
    bytes
}

/// Size of the newest snapshot in `dir`, MiB.
fn newest_snapshot_mb(dir: &Path) -> Option<f64> {
    let snaps = snapshot::list_snapshots(dir).ok()?;
    let (_, path) = snaps.first()?;
    Some(std::fs::metadata(path).ok()?.len() as f64 / (1024.0 * 1024.0))
}

pub fn run(opts: &Opts) -> Out {
    let (x, tf) = LOAD;
    let mut exp = fig4(x, tf, opts.seed);
    exp.trace.seed = crate::batch::TESTBED_TRACE_SEED;
    let mut w = Workload {
        exp,
        crash_round: crash_round(opts.seed),
        seed: opts.seed,
        work: opts.work.clone(),
        specs: Vec::new(),
        fresh: 0,
    };
    let mut out = Out::default();
    let mut errors = Vec::new();
    let setups = if opts.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut ready = Vec::new();
    let mut parts = (Duration::ZERO, Duration::ZERO);
    for _ in 0..setups {
        let t = Instant::now();
        match w.prepare(false) {
            Ok((live, g, s)) => {
                setup_s.push(t.elapsed().as_secs_f64());
                parts = (g, s);
                // Only the first service is kept for the main phase, so
                // the set-ups do not raise the peak resident set.
                if ready.is_empty() {
                    ready.push(live);
                } else {
                    let _ = std::fs::remove_dir_all(&live.dir);
                }
            }
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        }
    }
    let crash = w.work.join("crash");
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    out.detail.push((
        "setup_peak_rss_mb".into(),
        measure::peak_rss_mb().unwrap_or(0.0),
        "MiB",
    ));
    let (plain, sx, live_run) = w.phase(ready, seconds, false, Some(&crash), &mut errors);
    let Some(live_run) = live_run else {
        out.errors = errors;
        return out;
    };
    w.batch_equals(&live_run, &mut errors);
    let (recover_s, report) = w.recover(&crash, &live_run, &mut errors);
    let snapshot_mb = newest_snapshot_mb(&crash).unwrap_or(0.0);
    let submit = stats::tail(&sx.submit_us, TAIL_PCT);
    let rounds = plain.tail(TAIL_PCT);
    out.count(&plain);
    out.detail.extend([
        ("submit_p50_us".to_string(), submit.p50, "us"),
        ("submit_tail_us".into(), submit.value, "us"),
        ("submit_tail_pct".into(), submit.pct, "%"),
        ("submit_samples".into(), submit.samples as f64, "count"),
        ("recover_s".into(), recover_s, "s"),
        ("snapshot_mb".into(), snapshot_mb, "MiB"),
        ("round_tail_pct".into(), rounds.pct, "%"),
        ("round_samples".into(), rounds.samples as f64, "count"),
        ("round_tail_beyond".into(), rounds.beyond as f64, "count"),
        ("episodes".into(), plain.episodes as f64, "count"),
    ]);
    if !opts.trace {
        let met = live_run.jobs.iter().filter(|j| j.met_deadline).count();
        out.metrics
            .push(("setup_s".into(), stats::median(&setup_s), "s"));
        out.metrics.extend(plain.end_to_end(TAIL_PCT, &mut errors));
        out.metrics.push((
            "peak_rss_mb".into(),
            measure::peak_rss_mb().unwrap_or(0.0),
            "MiB",
        ));
        out.metrics
            .push(("jct_mean_min".into(), live_run.avg_jct_mins(), "min"));
        out.metrics
            .push(("deadlines_met".into(), met as f64, "jobs"));
    } else {
        let (traced, tx, traced_run) =
            w.phase(Vec::new(), opts.seconds / 2.0, true, None, &mut errors);
        if let Some(t) = &traced_run {
            if let Err(e) = checks::same_run("traced vs untraced", &live_run, t) {
                errors.push(e);
            }
        }
        out.count(&traced);
        let ep = traced.episodes.max(1) as f64;
        out.metrics.push((
            "workload.generate_ms".into(),
            parts.0.as_secs_f64() * 1e3,
            "ms",
        ));
        out.metrics
            .push(("core.warmup_s".into(), parts.1.as_secs_f64(), "s"));
        out.metrics.extend(traced.per_layer(TAIL_PCT));
        out.metrics.push((
            "bench.trace_overhead".into(),
            traced.wall_per_episode() / plain.wall_per_episode(),
            "ratio",
        ));
        let render_s: f64 = tx.render_ms.iter().sum::<f64>() / 1e3;
        let render_mb: f64 = tx.render_bytes.iter().sum::<f64>() / (1024.0 * 1024.0);
        out.detail.extend([
            (
                "service.submit_calls".to_string(),
                tx.submit_us.len() as f64 / ep,
                "count",
            ),
            (
                "service.tick_plain_p50_us".into(),
                stats::tail(&tx.tick_plain_us, 50.0).p50,
                "us",
            ),
            (
                "service.tick_snapshot_ms".into(),
                stats::median(&tx.tick_snapshot_ms),
                "ms",
            ),
            (
                "durability.wal_appends".into(),
                tx.wal_appends as f64 / ep,
                "count",
            ),
            (
                "durability.wal_fsyncs".into(),
                tx.wal_fsyncs as f64 / ep,
                "count",
            ),
            (
                "durability.wal_bytes".into(),
                tx.wal_bytes as f64 / ep,
                "bytes",
            ),
            (
                "durability.render_ms".into(),
                stats::median(&tx.render_ms),
                "ms",
            ),
            (
                "durability.render_mb_per_s".into(),
                render_mb / render_s,
                "MiB/s",
            ),
            (
                "durability.snapshot_bytes".into(),
                tx.render_bytes.last().copied().unwrap_or(0.0),
                "bytes",
            ),
        ]);
        out.detail
            .extend(w.recovery_layers(&crash, &report, &mut errors));
    }
    out.errors = errors;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cut the WAL at the start of its final record.
    fn drop_last_wal_record(path: &Path) {
        let bytes = std::fs::read(path).expect("crash copy has a WAL");
        let (mut pos, mut last) = (8usize, None);
        while pos + 8 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            last = Some(pos);
            pos += 8 + len;
        }
        let cut = last.expect("WAL holds a record");
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .expect("open WAL");
        f.set_len(cut as u64).expect("truncate WAL");
    }

    #[test]
    fn fires_on_a_recovery_that_loses_the_last_wal_record() {
        let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("selftest-wal-{}", std::process::id()));
        let mut w = Workload {
            exp: fig4(0.25, 16.0, 3),
            crash_round: crash_round(3),
            seed: 3,
            work: work.clone(),
            specs: Vec::new(),
            fresh: 0,
        };
        let crash = work.join("crash");
        let mut errors = Vec::new();
        let (live, ..) = w.prepare(false).expect("service builds");
        let live_run = w.serve(
            live,
            0,
            false,
            Some(&crash),
            &mut Phase::default(),
            &mut SvcStats::default(),
            &mut errors,
        );
        w.batch_equals(&live_run, &mut errors);
        w.recover(&crash, &live_run, &mut errors);
        assert!(errors.is_empty(), "an honest recovery passes: {errors:?}");

        drop_last_wal_record(&crash.join("wal.log"));
        let dir = w.dir("lossy");
        copy_dir(&crash, &dir).expect("copy");
        let (probe, log) = Probe::new(w.exp.trained_scheduler(SCHEDULER, w.seed), false);
        let (svc, report) = Service::builder(w.exp.sim.clone())
            .admission(admission())
            .durability(durability(&dir))
            .recover(Box::new(probe))
            .expect("a shortened WAL still recovers");
        // The lost job is not submitted again.
        let from = report.resumed_accepted as usize + 1;
        let drained = w.serve(
            Live { svc, log, dir },
            from,
            false,
            None,
            &mut Phase::default(),
            &mut SvcStats::default(),
            &mut errors,
        );
        let _ = std::fs::remove_dir_all(&work);
        assert!(checks::same_run("lossy recovery", &live_run, &drained).is_err());
        assert!(
            errors.iter().any(|e| e.contains("jobs submitted")),
            "{errors:?}"
        );
    }
}
