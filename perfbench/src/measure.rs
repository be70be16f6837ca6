//! Accumulators shared by every workload: the main phase's program
//! time, per-round samples, and what the probe logged.

use crate::probe::{Log, ProbeLog};
use crate::stats::{self, Tail};
use metrics::RunMetrics;
use mlfs::Scheduler;

use mlfs_sim::engine::{SimConfig, Simulation, StepOutcome};
use std::time::{Duration, Instant};
use workload::JobSpec;

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Per-layer figures gathered by the probe in the traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub calls: u64,
    pub placements: u64,
    pub migrations: u64,
    pub evictions: u64,
    pub candidates_scored: u64,
    pub decide_us: Vec<f64>,
    pub observe_ns: u64,
    pub arena_jobs_max: usize,
    pub active_jobs_max: usize,
}

impl Layers {
    /// Fold in one run's probe log and the run's engine counters.
    pub fn absorb(&mut self, log: &mut ProbeLog, m: &RunMetrics) {
        self.calls += log.calls;
        self.placements += log.placements;
        self.migrations += log.migrations;
        self.evictions += log.evictions;
        self.candidates_scored += m.telemetry.candidates_scored;
        self.decide_us.append(&mut log.decide_us);
        self.observe_ns += log.observe_ns;
        self.arena_jobs_max = self.arena_jobs_max.max(log.arena_jobs_max);
        self.active_jobs_max = self.active_jobs_max.max(log.active_jobs_max);
    }

    pub fn decide_ms(&self) -> f64 {
        self.decide_us.iter().sum::<f64>() / 1e3
    }
}

/// The main phase of a run: program time and per-round samples.
#[derive(Debug, Default)]
pub struct Phase {
    /// Whole episodes run.
    pub episodes: u64,
    /// Program time: the benchmark's own checks subtracted.
    pub busy: Duration,
    /// Wall time of each scheduling round (engine plus scheduler), ms.
    pub round_ms: Vec<f64>,
    /// Traced: each round's time outside the scheduler's decision, µs.
    pub engine_self_us: Vec<f64>,
    /// Time spent turning finished engines into metrics.
    pub finalize: Duration,
    /// Jobs the program was given, and jobs that finished.
    pub jobs: u64,
    pub finished: u64,
    pub layers: Layers,
    /// Wall time of the episodes, the benchmark's checks included.
    pub wall: Duration,
    /// Jobs finished per second of program time, one per episode.
    pub episode_rate: Vec<f64>,
    /// Number of rounds recorded when each episode ended.
    episode_ends: Vec<usize>,
    /// Number of rounds recorded when each batch run ended.
    run_ends: Vec<usize>,
    /// Program time and finished jobs when the current episode began.
    mark: (Duration, u64),
}

impl Phase {
    /// Record one round of `total` wall time, of which `decide_ns`
    /// was the scheduler's decision and `check_ns` the benchmark's
    /// own checks.
    pub fn round(&mut self, total: Duration, decide_ns: u64, check_ns: u64, traced: bool) {
        let prog = total.saturating_sub(Duration::from_nanos(check_ns));
        self.busy += prog;
        self.round_ms.push(prog.as_secs_f64() * 1e3);
        if traced {
            let own = prog.saturating_sub(Duration::from_nanos(decide_ns));
            self.engine_self_us.push(own.as_secs_f64() * 1e6);
        }
    }

    /// Count one finished run's jobs.
    pub fn outcome(&mut self, m: &RunMetrics) {
        self.jobs += m.jobs_submitted as u64;
        self.finished += m.jobs.iter().filter(|j| j.finished.is_some()).count() as u64;
    }

    /// Close one batch run of an episode.
    pub fn run_done(&mut self) {
        self.run_ends.push(self.round_ms.len());
    }

    /// Close an episode: count it and note its throughput.
    pub fn episode_done(&mut self) {
        let (busy, finished) = self.mark;
        let secs = (self.busy - busy).as_secs_f64();
        self.episode_rate
            .push((self.finished - finished) as f64 / secs);
        self.mark = (self.busy, self.finished);
        self.episode_ends.push(self.round_ms.len());
        self.episodes += 1;
    }

    pub fn wall_per_episode(&self) -> f64 {
        self.wall.as_secs_f64() / self.episodes.max(1) as f64
    }

    /// Median and `pct` percentile of the rounds' medians over the
    /// episodes.
    pub fn tail(&self, pct: f64) -> Tail {
        stats::tail(&self.round_medians_ms(), pct)
    }

    /// Each round's median time over the episodes, one per round index.
    /// Every episode runs the same rounds, so this keeps the rounds that
    /// are slow in every episode and drops a round the host slowed once.
    pub fn round_medians_ms(&self) -> Vec<f64> {
        let mut start = 0;
        let episodes: Vec<&[f64]> = self
            .episode_ends
            .iter()
            .map(|&end| {
                let e = self.round_ms.get(start..end).unwrap_or(&[]);
                start = end;
                e
            })
            .collect();
        let rounds = episodes.iter().map(|e| e.len()).min().unwrap_or(0);
        (0..rounds)
            .map(|r| stats::median(&episodes.iter().map(|e| e[r]).collect::<Vec<_>>()))
            .collect()
    }

    /// Median round time of each run of an episode, over the rounds'
    /// medians. An episode of several runs (seven schedulers, or three
    /// crash sequences) mixes rounds of different costs; its overall
    /// median falls wherever the runs' ranks meet and moved by a quarter
    /// between runs of `testbed-baselines`, so the runs are taken apart.
    pub fn run_p50s(&self) -> Vec<f64> {
        let medians = self.round_medians_ms();
        let mut cuts: Vec<usize> = self
            .run_ends
            .iter()
            .copied()
            .take_while(|&end| end < medians.len())
            .collect();
        cuts.push(medians.len());
        let mut start = 0;
        cuts.iter()
            .map(|&end| {
                let m = stats::median(medians.get(start..end).unwrap_or(&[]));
                start = end;
                m
            })
            .collect()
    }

    /// Keep going until `seconds` have passed and `min_episodes` have
    /// run.
    pub fn wants_more(&self, started: Instant, seconds: f64, min_episodes: u64) -> bool {
        self.episodes < min_episodes.max(1) || started.elapsed().as_secs_f64() < seconds
    }

    /// The end-to-end metrics every workload reports from its main
    /// phase (setup, memory and the JCT figures are added by caller).
    pub fn end_to_end(&self, pct: f64, errors: &mut Vec<String>) -> Vec<Metric> {
        let t = self.tail(pct);
        if t.beyond < stats::MIN_BEYOND {
            errors.push(format!(
                "the p{pct} round tail leaves {} rounds beyond it, fewer than {}",
                t.beyond,
                stats::MIN_BEYOND
            ));
        }
        vec![
            (
                "jobs_per_s".into(),
                stats::median(&self.episode_rate),
                "1/s",
            ),
            (
                "round_p50_ms".into(),
                stats::geometric_mean(&self.run_p50s()),
                "ms",
            ),
            ("round_tail_ms".into(), t.value, "ms"),
        ]
    }

    /// The per-layer metrics every workload reports from its traced
    /// phase, per episode where they are totals.
    pub fn per_layer(&self, pct: f64) -> Vec<Metric> {
        let ep = self.episodes.max(1) as f64;
        let l = &self.layers;
        let dec = stats::tail(&l.decide_us, pct);
        let own = stats::tail(&self.engine_self_us, 50.0);
        let own_ms: f64 = self.engine_self_us.iter().sum::<f64>() / 1e3;
        let busy_ms = self.busy.as_secs_f64() * 1e3;
        vec![
            ("sim.engine_self_ms".into(), own_ms / ep, "ms"),
            ("sim.engine_self_p50_us".into(), own.p50, "us"),
            (
                "sim.finalize_ms".into(),
                self.finalize.as_secs_f64() * 1e3 / ep,
                "ms",
            ),
            (
                "sim.arena_jobs_max".into(),
                l.arena_jobs_max as f64,
                "count",
            ),
            (
                "sim.active_jobs_max".into(),
                l.active_jobs_max as f64,
                "count",
            ),
            ("sched.decide_ms".into(), l.decide_ms() / ep, "ms"),
            ("sched.decide_p50_us".into(), dec.p50, "us"),
            ("sched.decide_tail_us".into(), dec.value, "us"),
            (
                "sched.decide_share".into(),
                l.decide_ms() / busy_ms,
                "ratio",
            ),
            ("sched.calls".into(), l.calls as f64 / ep, "count"),
            ("sched.placements".into(), l.placements as f64 / ep, "count"),
            ("sched.migrations".into(), l.migrations as f64 / ep, "count"),
            ("sched.evictions".into(), l.evictions as f64 / ep, "count"),
            (
                "sched.candidates_scored".into(),
                l.candidates_scored as f64 / ep,
                "count",
            ),
            (
                "sched.observe_reward_ms".into(),
                l.observe_ns as f64 / 1e6 / ep,
                "ms",
            ),
        ]
    }
}

/// Run one batch simulation of `specs` under `sched` through the
/// probe, recording its rounds into `phase`. Returns the metrics and
/// the probe's check failures.
pub fn batch_run(
    cfg: &SimConfig,
    specs: &[JobSpec],
    sched: Box<dyn Scheduler>,
    traced: bool,
    phase: &mut Phase,
) -> (RunMetrics, Vec<String>) {
    let (mut probe, log) = crate::probe::Probe::new(sched, traced);
    let specs = specs.to_vec();
    let t = Instant::now();
    let mut sim = Simulation::new(cfg.clone(), specs);
    sim.begin(&mut probe);
    phase.busy += t.elapsed();
    loop {
        let t = Instant::now();
        let out = sim.step(&mut probe);
        let dt = t.elapsed();
        let (decide, check) = log.lock().take_round();
        phase.round(dt, decide, check, traced);
        if out != StepOutcome::Continue {
            break;
        }
    }
    let t = Instant::now();
    let mut m = sim.into_metrics();
    let fin = t.elapsed();
    // Stamped as `engine::run` and `Service::finish` do.
    m.scheduler = probe.name().to_string();
    phase.busy += fin;
    phase.finalize += fin;
    phase.outcome(&m);
    phase.run_done();
    let errors = drain(&log, &m, phase);
    (m, errors)
}

/// Fold a finished run's probe log into the phase; return its errors.
pub fn drain(log: &Log, m: &RunMetrics, phase: &mut Phase) -> Vec<String> {
    let mut log = log.lock();
    phase.layers.absorb(&mut log, m);
    std::mem::take(&mut log.errors)
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_medians_keep_steady_slow_rounds_and_drop_one_offs() {
        let mut phase = Phase::default();
        // Round 1 is slow in every episode; round 2 only in the second.
        for slow2 in [1.0, 50.0, 1.0] {
            for ms in [1.0, 9.0, slow2] {
                phase.round(Duration::from_secs_f64(ms / 1e3), 0, 0, false);
            }
            phase.episode_done();
        }
        let medians = phase.round_medians_ms();
        assert_eq!(medians.len(), 3);
        assert!((medians[1] - 9.0).abs() < 1e-6);
        assert!((medians[2] - 1.0).abs() < 1e-6);
        assert!((phase.tail(99.0).value - 9.0).abs() < 1e-6);
    }

    #[test]
    fn a_tail_with_too_few_rounds_beyond_it_is_an_error() {
        let mut phase = Phase::default();
        for _ in 0..500 {
            phase.round(Duration::from_micros(100), 0, 0, false);
        }
        phase.episode_done();
        let mut errors = Vec::new();
        phase.end_to_end(98.0, &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        phase.end_to_end(99.0, &mut errors);
        assert_eq!(errors.len(), 1, "p99 of 500 rounds leaves five beyond");
    }

    #[test]
    fn round_p50_is_the_geometric_mean_of_each_runs_median() {
        let mut phase = Phase::default();
        for _ in 0..2 {
            for run in [[1.0, 1.0, 2.0], [4.0, 4.0, 8.0]] {
                for ms in run {
                    phase.round(Duration::from_secs_f64(ms / 1e3), 0, 0, false);
                }
                phase.run_done();
            }
            phase.episode_done();
        }
        let p50s = phase.run_p50s();
        assert_eq!(p50s.len(), 2);
        assert!((p50s[0] - 1.0).abs() < 1e-6 && (p50s[1] - 4.0).abs() < 1e-6);
        assert!((stats::geometric_mean(&p50s) - 2.0).abs() < 1e-6);
    }
}
