//! A delegating [`Scheduler`] wrapper: checks every round's context
//! and actions, counts decisions, and — in the traced run — times the
//! calls into the scheduler layer.
//!
//! The engine owns the scheduler for the length of a run (the service
//! keeps it until `finish`), so the probe writes into a shared
//! [`ProbeLog`] the benchmark reads between rounds.

use crate::checks;
use cluster::HealthState;
use mlfs::{Action, RewardComponents, Scheduler, SchedulerContext};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// What the probe saw; shared between the probe and the benchmark.
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// Check failures (the first few, with the round they fired in).
    pub errors: Vec<String>,
    /// `schedule_stream` calls.
    pub calls: u64,
    /// Actions the scheduler returned, by kind.
    pub placements: u64,
    pub migrations: u64,
    pub evictions: u64,
    /// Traced: wall time of every decision, µs.
    pub decide_us: Vec<f64>,
    /// Traced: total wall time in `observe_reward`, ns.
    pub observe_ns: u64,
    /// Traced: largest arena and active-job counts seen.
    pub arena_jobs_max: usize,
    pub active_jobs_max: usize,
    /// Wall time since the last [`ProbeLog::take_round`]: in the
    /// scheduler's decision, and in the benchmark's own checks.
    round_decide_ns: u64,
    round_check_ns: u64,
}

impl ProbeLog {
    /// Decision and check nanoseconds since the previous call.
    pub fn take_round(&mut self) -> (u64, u64) {
        let out = (self.round_decide_ns, self.round_check_ns);
        self.round_decide_ns = 0;
        self.round_check_ns = 0;
        out
    }

    fn fail(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// Shared handle to a probe's log.
#[derive(Clone, Default)]
pub struct Log(Arc<Mutex<ProbeLog>>);

impl Log {
    pub fn lock(&self) -> MutexGuard<'_, ProbeLog> {
        self.0
            .lock()
            .expect("probe log poisoned by a panicking round")
    }
}

/// The wrapper the benchmark hands to the engine.
pub struct Probe {
    inner: Box<dyn Scheduler>,
    traced: bool,
    log: Log,
}

impl Probe {
    pub fn new(inner: Box<dyn Scheduler>, traced: bool) -> (Probe, Log) {
        let log = Log::default();
        let probe = Probe {
            inner,
            traced,
            log: log.clone(),
        };
        (probe, log)
    }
}

/// Check the state the scheduler is about to see: no task on a
/// crashed server, and every placed or queued task belongs to a job
/// that has arrived and not finished.
fn check_context(ctx: &SchedulerContext<'_>) -> Result<(), String> {
    for (i, srv) in ctx.cluster.servers().iter().enumerate() {
        let down = matches!(srv.health(), HealthState::Down { .. });
        if let Some(e) = checks::server_fault(down, srv.task_count()) {
            return Err(format!("server {i}: {e}"));
        }
        for (task, _) in srv.tasks() {
            let job = ctx.job_of(*task).map(|j| (j.spec.arrival, j.is_finished()));
            if let Some(e) = checks::task_fault(ctx.now, job) {
                return Err(format!("placed task {task:?} on server {i}: {e}"));
            }
        }
    }
    for task in ctx.queue {
        let job = ctx.job_of(*task).map(|j| (j.spec.arrival, j.is_finished()));
        if let Some(e) = checks::task_fault(ctx.now, job) {
            return Err(format!("queued task {task:?}: {e}"));
        }
    }
    Ok(())
}

/// Check the scheduler's answer: nothing is sent to a crashed server.
fn check_actions(ctx: &SchedulerContext<'_>, actions: &[Action]) -> Result<(), String> {
    for a in actions {
        let (task, server) = match *a {
            Action::Place { task, server } => (task, server),
            Action::Migrate { task, to } => (task, to),
            _ => continue,
        };
        let down = ctx
            .cluster
            .servers()
            .get(server.0 as usize)
            .is_some_and(|s| matches!(s.health(), HealthState::Down { .. }));
        if down {
            return Err(format!(
                "action sends task {task:?} to crashed server {}",
                server.0
            ));
        }
    }
    Ok(())
}

impl Scheduler for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        self.schedule_stream(ctx, &[])
    }

    fn schedule_stream(
        &mut self,
        ctx: &SchedulerContext<'_>,
        arrived: &[cluster::JobId],
    ) -> Vec<Action> {
        let t0 = Instant::now();
        let before = check_context(ctx);
        let (arena, active) = if self.traced {
            (ctx.jobs.len(), ctx.active_jobs().count())
        } else {
            (0, 0)
        };
        let t1 = Instant::now();
        let actions = self.inner.schedule_stream(ctx, arrived);
        let t2 = Instant::now();
        let after = check_actions(ctx, &actions);
        let decide_ns = (t2 - t1).as_nanos() as u64;
        let mut log = self.log.lock();
        log.calls += 1;
        for a in &actions {
            match a {
                Action::Place { .. } => log.placements += 1,
                Action::Migrate { .. } => log.migrations += 1,
                Action::Evict { .. } => log.evictions += 1,
                _ => {}
            }
        }
        let round = log.calls;
        if let Err(e) = before.and(after) {
            log.fail(format!("round {round}: {e}"));
        }
        if self.traced {
            log.decide_us.push(decide_ns as f64 / 1e3);
            log.arena_jobs_max = log.arena_jobs_max.max(arena);
            log.active_jobs_max = log.active_jobs_max.max(active);
        }
        log.round_decide_ns += decide_ns;
        // Everything but the decision itself is the benchmark's cost.
        log.round_check_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(decide_ns);
        actions
    }

    fn observe_reward(&mut self, reward: &RewardComponents) {
        if !self.traced {
            self.inner.observe_reward(reward);
            return;
        }
        let t0 = Instant::now();
        self.inner.observe_reward(reward);
        let ns = t0.elapsed().as_nanos() as u64;
        self.log.lock().observe_ns += ns;
    }

    fn attach_tracer(&mut self, tracer: Arc<obs::Tracer>) {
        self.inner.attach_tracer(tracer);
    }

    fn export_state(&self) -> Option<String> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &str) -> bool {
        self.inner.import_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{batch_run, Phase};
    use cluster::ServerId;
    use mlfs_sim::experiments::{fault_sweep, Experiment};

    /// MLF-H, plus one task sent to a crashed server whenever one is
    /// down: a queued task placed there, else a running one migrated.
    struct Saboteur(Box<dyn Scheduler>);

    impl Scheduler for Saboteur {
        fn name(&self) -> &'static str {
            "saboteur"
        }

        fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
            let mut actions = self.0.schedule(ctx);
            let servers = ctx.cluster.servers();
            let Some(down) = servers
                .iter()
                .position(|s| matches!(s.health(), HealthState::Down { .. }))
            else {
                return actions;
            };
            let to = ServerId(down as u32);
            if let Some(&task) = ctx.queue.first() {
                actions.push(Action::Place { task, server: to });
            } else if let Some((&task, _)) = servers.iter().flat_map(|s| s.tasks()).next() {
                actions.push(Action::Migrate { task, to });
            }
            actions
        }
    }

    fn crashing() -> Experiment {
        fault_sweep(0.25, 32.0, 1.0, 50, 5)
    }

    #[test]
    fn a_clean_run_passes_the_round_checks() {
        let e = crashing();
        let (m, errors) = batch_run(
            &e.sim,
            &e.jobs(),
            e.scheduler("MLF-H", 5),
            false,
            &mut Phase::default(),
        );
        assert!(m.server_failures > 0, "the experiment must crash servers");
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn fires_on_a_task_sent_to_a_crashed_server() {
        let e = crashing();
        let sab = Box::new(Saboteur(e.scheduler("MLF-H", 5)));
        let (_, errors) = batch_run(&e.sim, &e.jobs(), sab, false, &mut Phase::default());
        assert!(
            errors.iter().any(|e| e.contains("crashed server")),
            "{errors:?}"
        );
    }
}
