//! The three workloads that drive the batch engine:
//! `philly-mlfh`, `testbed-mlfs-faults` and `testbed-baselines`.

use crate::checks;
use crate::measure::{self, Metric, Phase};
use crate::{Opts, Out};
use metrics::RunMetrics;
use mlfs::Scheduler;
use mlfs_sim::experiments::{fault_sweep, fig4, fig5, Experiment};
use simcore::SimTime;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::JobSpec;

/// Fig. 5 Philly-like setting: load multiplier, cluster fraction, time
/// compression.
const PHILLY: (f64, f64, f64) = (1.0, 0.25, 40.0);
/// Fig. 4 testbed with crashes: load, compression, per-server MTBF
/// (simulated hours), checkpoint interval (iterations).
const FAULTS: (f64, f64, f64, u64) = (1.0, 32.0, 3.0, 50);
/// Crash sequences evaluated in each `testbed-mlfs-faults` episode: one
/// sequence's run cost moves by a quarter from one seed to the next.
const CRASH_SEQUENCES: u64 = 3;
/// Fig. 4 testbed at its heaviest load: load, compression.
const BASELINE_LOAD: (f64, f64) = (3.0, 32.0);
/// Seed of the testbed workloads' fixed job trace, and of the
/// schedulers the seed would otherwise make erratic (see the README).
pub const TESTBED_TRACE_SEED: u64 = 42;
/// The seven comparison schedulers of Figs. 4-5.
const BASELINES: [&str; 7] = [
    "TensorFlow",
    "RL",
    "Tiresias",
    "SLAQ",
    "Graphene",
    "Gandiva",
    "HyperSched",
];

/// How later episodes get fresh schedulers once the set-up ones are
/// used up.
enum Refill {
    /// Call `Experiment::trained_scheduler` again.
    Rebuild,
    /// Build the untrained scheduler and import the trained one's
    /// exported state (the offline warm-up is paid once per set-up).
    Import,
}

/// A batch workload: the experiments of one trace and the schedulers
/// an episode runs in turn on each, and the tail percentile its rounds
/// support.
struct Batch {
    exps: Vec<Experiment>,
    /// The experiment the schedulers are built (and warmed up) for.
    warm: Experiment,
    names: &'static [&'static str],
    seed: u64,
    setups: usize,
    /// Episodes a phase runs at the least.
    min_episodes: u64,
    tail_pct: f64,
    refill: Refill,
}

/// What one set-up produced, and how long its parts took.
struct Prepared {
    specs: Vec<JobSpec>,
    scheds: Vec<Box<dyn Scheduler>>,
    generate: Duration,
    warmup: Duration,
}

impl Batch {
    fn prepare(&self) -> Prepared {
        let t = Instant::now();
        let specs = self.exps[0].jobs();
        let generate = t.elapsed();
        let t = Instant::now();
        let scheds = self
            .names
            .iter()
            .map(|n| self.warm.trained_scheduler(n, self.seed))
            .collect();
        Prepared {
            specs,
            scheds,
            generate,
            warmup: t.elapsed(),
        }
    }

    /// Fresh schedulers for one more episode.
    fn refill(
        &self,
        states: &[Option<String>],
        errors: &mut Vec<String>,
    ) -> Vec<Box<dyn Scheduler>> {
        match self.refill {
            Refill::Rebuild => self.prepare().scheds,
            Refill::Import => self
                .names
                .iter()
                .zip(states)
                .map(|(n, st)| {
                    let mut s = self.warm.scheduler(n, self.seed);
                    if let Some(st) = st {
                        if !s.import_state(st) {
                            errors.push(format!("{n}: trained state did not import"));
                        }
                    }
                    s
                })
                .collect(),
        }
    }

    /// Run the schedulers of one episode in turn on each experiment
    /// (`scheds` holds one set per experiment); check every run.
    fn episode(
        &self,
        specs: &[JobSpec],
        scheds: Vec<Box<dyn Scheduler>>,
        traced: bool,
        phase: &mut Phase,
        per_sched: &mut BTreeMap<&'static str, Vec<f64>>,
        errors: &mut Vec<String>,
    ) -> Vec<RunMetrics> {
        let mut runs = Vec::new();
        let names = self.names.iter().cycle();
        let exps = self
            .exps
            .iter()
            .flat_map(|e| self.names.iter().map(move |_| e));
        for ((name, exp), sched) in names.zip(exps).zip(scheds) {
            let before = phase.layers.decide_us.len();
            let (m, errs) = measure::batch_run(&exp.sim, specs, sched, traced, phase);
            per_sched
                .entry(name)
                .or_default()
                .extend_from_slice(&phase.layers.decide_us[before..]);
            errors.extend(errs.into_iter().map(|e| format!("{name}: {e}")));
            if let Err(e) = checks::run_metrics(&m, specs, SimTime::ZERO + exp.sim.max_time) {
                errors.push(format!("{name}: {e}"));
            }
            runs.push(m);
        }
        phase.episode_done();
        runs
    }

    /// Episodes for `seconds`, starting with the set-up schedulers.
    fn phase(
        &self,
        specs: &[JobSpec],
        mut ready: Vec<Vec<Box<dyn Scheduler>>>,
        states: &[Option<String>],
        seconds: f64,
        traced: bool,
        errors: &mut Vec<String>,
    ) -> (Phase, Vec<RunMetrics>, BTreeMap<&'static str, Vec<f64>>) {
        ready.reverse();
        let mut phase = Phase::default();
        let mut per_sched = BTreeMap::new();
        let mut first: Option<Vec<RunMetrics>> = None;
        let started = Instant::now();
        while phase.wants_more(started, seconds, self.min_episodes) {
            let mut scheds = ready.pop().unwrap_or_else(|| self.refill(states, errors));
            for _ in 1..self.exps.len() {
                scheds.extend(self.refill(states, errors));
            }
            let t = Instant::now();
            let runs = self.episode(specs, scheds, traced, &mut phase, &mut per_sched, errors);
            phase.wall += t.elapsed();
            match &first {
                None => first = Some(runs),
                Some(f) => {
                    for ((a, b), n) in f.iter().zip(&runs).zip(self.names.iter().cycle()) {
                        if let Err(e) = checks::same_run(&format!("{n}: repeated episode"), a, b) {
                            errors.push(e);
                        }
                    }
                }
            }
        }
        (phase, first.unwrap_or_default(), per_sched)
    }

    /// One run; in trace mode also the traced phase.
    fn run(&self, opts: &Opts) -> (Out, Option<Phase>) {
        let mut out = Out::default();
        let mut errors = Vec::new();
        let setups = if opts.trace { 1 } else { self.setups };
        let t = Instant::now();
        let Prepared {
            specs,
            scheds,
            generate,
            warmup,
        } = self.prepare();
        let mut setup_s = vec![t.elapsed().as_secs_f64()];
        let mut ready = vec![scheds];
        // Later set-ups keep only their schedulers: each trace is dropped
        // once timed, so it does not raise the peak resident set.
        for _ in 1..setups {
            let t = Instant::now();
            let p = self.prepare();
            setup_s.push(t.elapsed().as_secs_f64());
            ready.push(p.scheds);
        }
        let states: Vec<Option<String>> = ready[0].iter().map(|s| s.export_state()).collect();

        let mut traced_phase = None;
        if !opts.trace {
            out.detail.push((
                "setup_peak_rss_mb".into(),
                measure::peak_rss_mb().unwrap_or(0.0),
                "MiB",
            ));
            let (phase, runs, _) =
                self.phase(&specs, ready, &states, opts.seconds, false, &mut errors);
            out.metrics
                .push(("setup_s".into(), crate::stats::median(&setup_s), "s"));
            out.metrics
                .extend(phase.end_to_end(self.tail_pct, &mut errors));
            out.metrics.push((
                "peak_rss_mb".into(),
                measure::peak_rss_mb().unwrap_or(0.0),
                "MiB",
            ));
            out.metrics.extend(jct_figures(&runs));
            out.count(&phase);
            out.detail.extend(run_detail(&runs, &phase, self.tail_pct));
        } else {
            let half = opts.seconds / 2.0;
            let (plain, plain_runs, _) =
                self.phase(&specs, ready, &states, half, false, &mut errors);
            let (traced, traced_runs, per_sched) =
                self.phase(&specs, Vec::new(), &states, half, true, &mut errors);
            for ((a, b), n) in plain_runs
                .iter()
                .zip(&traced_runs)
                .zip(self.names.iter().cycle())
            {
                if let Err(e) = checks::same_run(&format!("{n}: traced vs untraced"), a, b) {
                    errors.push(e);
                }
            }
            out.metrics.push((
                "workload.generate_ms".into(),
                generate.as_secs_f64() * 1e3,
                "ms",
            ));
            out.metrics
                .push(("core.warmup_s".into(), warmup.as_secs_f64(), "s"));
            out.metrics.extend(traced.per_layer(self.tail_pct));
            out.metrics.push((
                "bench.trace_overhead".into(),
                traced.wall_per_episode() / plain.wall_per_episode(),
                "ratio",
            ));
            out.count(&plain);
            out.count(&traced);
            out.detail
                .extend(run_detail(&plain_runs, &plain, self.tail_pct));
            if self.names.len() > 1 {
                for (name, us) in &per_sched {
                    let t = crate::stats::tail(us, 50.0);
                    let total: f64 = us.iter().sum::<f64>() / 1e3 / traced.episodes.max(1) as f64;
                    out.detail
                        .push((format!("baselines.{name}.decide_ms"), total, "ms"));
                    out.detail
                        .push((format!("baselines.{name}.decide_p50_us"), t.p50, "us"));
                }
            }
            traced_phase = Some(traced);
        }
        out.errors = errors;
        (out, traced_phase)
    }
}

/// Mean JCT over every finished job of the runs, and jobs on time, as
/// the program reports them.
fn jct_figures(runs: &[RunMetrics]) -> Vec<Metric> {
    let (mut sum, mut n, mut met) = (0.0, 0usize, 0usize);
    for m in runs {
        let k = m.jcts_mins().len();
        sum += m.avg_jct_mins() * k as f64;
        n += k;
        met += m.jobs.iter().filter(|j| j.met_deadline).count();
    }
    vec![
        ("jct_mean_min".into(), sum / n.max(1) as f64, "min"),
        ("deadlines_met".into(), met as f64, "jobs"),
    ]
}

/// Facts about the runs that are not metrics of their own.
fn run_detail(runs: &[RunMetrics], phase: &Phase, pct: f64) -> Vec<Metric> {
    let t = phase.tail(pct);
    vec![
        ("round_tail_pct".into(), t.pct, "%"),
        ("round_samples".into(), t.samples as f64, "count"),
        ("round_tail_beyond".into(), t.beyond as f64, "count"),
        ("episodes".into(), phase.episodes as f64, "count"),
        (
            "server_failures".into(),
            runs.iter().map(|m| m.server_failures).sum::<u64>() as f64,
            "count",
        ),
        (
            "invalid_actions".into(),
            runs.iter().map(|m| m.invalid_actions).sum::<u64>() as f64,
            "count",
        ),
    ]
}

/// Mean per-round decision time and engine self time of a traced
/// phase, ms.
fn per_round(phase: &Phase) -> (f64, f64) {
    let rounds = phase.layers.calls.max(1) as f64;
    let own_ms: f64 = phase.engine_self_us.iter().sum::<f64>() / 1e3;
    (phase.layers.decide_ms() / rounds, own_ms / rounds)
}

/// Growth exponents of per-round cost from the traced full-scale
/// phase and one traced episode at half the Philly cluster.
fn philly_exponents(full: &Phase, opts: &Opts, errors: &mut Vec<String>) -> Vec<Metric> {
    let (x, scale, tf) = PHILLY;
    let mut half = philly(opts.seed);
    half.warm = fig5(x, scale / 2.0, tf, opts.seed);
    half.exps = vec![half.warm.clone()];
    let p = half.prepare();
    let mut phase = Phase::default();
    half.episode(
        &p.specs,
        p.scheds,
        true,
        &mut phase,
        &mut BTreeMap::new(),
        errors,
    );
    let (half_decide, half_own) = per_round(&phase);
    let (full_decide, full_own) = per_round(full);
    let k = |a, b| crate::stats::exponent(scale / 2.0, a, scale, b);
    vec![
        (
            "sched.decide_exponent".into(),
            k(half_decide, full_decide),
            "1",
        ),
        (
            "sim.engine_self_exponent".into(),
            k(half_own, full_own),
            "1",
        ),
    ]
}

fn philly(seed: u64) -> Batch {
    let (x, scale, tf) = PHILLY;
    Batch {
        exps: vec![fig5(x, scale, tf, seed)],
        warm: fig5(x, scale, tf, seed),
        names: &["MLF-H"],
        seed,
        // A set-up is about 0.1 s, mostly trace generation.
        setups: 15,
        min_episodes: 1,
        // The 99th percentile falls on the trace's arrival bursts and
        // moves by a third from seed to seed; the 98th moves by 4%.
        tail_pct: 98.0,
        refill: Refill::Rebuild,
    }
}

pub fn run_philly(opts: &Opts) -> Out {
    let (mut out, traced) = philly(opts.seed).run(opts);
    if let Some(traced) = traced {
        let exps = philly_exponents(&traced, opts, &mut out.errors);
        out.detail.extend(exps);
    }
    out
}

pub fn run_mlfs_faults(opts: &Opts) -> Out {
    let (x, tf, mtbf, ckpt) = FAULTS;
    // The offline warm-up sees one fixed crash sequence; the seed draws
    // the crash sequences of the evaluated runs, several an episode.
    let warm = fault_sweep(x, tf, mtbf, ckpt, TESTBED_TRACE_SEED);
    let exps = (0..CRASH_SEQUENCES)
        .map(|i| {
            let mut e = warm.clone();
            e.sim.seed = opts.seed.wrapping_mul(CRASH_SEQUENCES).wrapping_add(i);
            e
        })
        .collect();
    let b = Batch {
        exps,
        warm,
        names: &["MLFS"],
        seed: TESTBED_TRACE_SEED,
        setups: 3,
        min_episodes: 1,
        // An episode has about 910 rounds: their 99th percentile leaves
        // nine beyond it, the 98th eighteen.
        tail_pct: 98.0,
        refill: Refill::Import,
    };
    let (mut out, _) = b.run(opts);
    let crashes = out
        .detail
        .iter()
        .find(|m| m.0 == "server_failures")
        .map_or(0.0, |m| m.1);
    if crashes == 0.0 {
        out.errors
            .push("no server crashed: the fault path was not exercised".into());
    }
    out
}

pub fn run_baselines(opts: &Opts) -> Out {
    // Nothing here depends on the seed: the trace seed moves the run
    // cost 2.4x at this load, and some RL seeds run for minutes.
    let (x, tf) = BASELINE_LOAD;
    let exp = fig4(x, tf, TESTBED_TRACE_SEED);
    let b = Batch {
        warm: exp.clone(),
        exps: vec![exp],
        names: &BASELINES,
        seed: TESTBED_TRACE_SEED,
        // Each set-up is about 1.6 s, mostly the RL warm-up; the median
        // of three moved by a quarter over ten runs.
        setups: 7,
        // One episode outlasts the run length; the median of two is
        // steadier than a single sample.
        min_episodes: 2,
        tail_pct: 99.0,
        refill: Refill::Rebuild,
    };
    b.run(opts).0
}
