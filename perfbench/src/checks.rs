//! Output checks. Each returns the first violation it finds, so a
//! run reports what went wrong rather than just that it did.

use metrics::RunMetrics;
use simcore::SimTime;
use std::collections::BTreeSet;
use workload::JobSpec;

/// A crashed server must hold no task.
pub fn server_fault(down: bool, tasks: usize) -> Option<String> {
    (down && tasks > 0).then(|| format!("crashed server holds {tasks} task(s)"))
}

/// A placed or queued task must belong to a job that exists, has
/// arrived by `now` and has not finished. `job` is `(arrival,
/// finished)` of the owning job, `None` if it is unknown.
pub fn task_fault(now: SimTime, job: Option<(SimTime, bool)>) -> Option<String> {
    match job {
        None => Some("belongs to no known job".into()),
        Some((arrival, _)) if arrival > now => Some(format!(
            "belongs to a job arriving at {arrival:?}, after now {now:?}"
        )),
        Some((_, true)) => Some("belongs to a finished job".into()),
        Some(_) => None,
    }
}

/// JCT in minutes recomputed from a record's own timestamps.
fn jct_mins(arrival: SimTime, finished: SimTime) -> f64 {
    finished.since(arrival).as_mins_f64()
}

/// Mean JCT and deadlines met, recomputed from the per-job records
/// without the program's own aggregates.
pub fn recompute(m: &RunMetrics) -> (f64, usize) {
    let mut sum = 0.0;
    let mut n = 0usize;
    let mut met = 0usize;
    for j in &m.jobs {
        if let Some(f) = j.finished {
            sum += jct_mins(j.arrival, f);
            n += 1;
            if f <= j.deadline {
                met += 1;
            }
        }
    }
    (if n == 0 { 0.0 } else { sum / n as f64 }, met)
}

/// Properties every run's metrics must have: each submitted job
/// recorded exactly once, finish times inside `[arrival, horizon]`,
/// the headline aggregates equal to their recomputation, no leaked
/// tasks.
pub fn run_metrics(m: &RunMetrics, specs: &[JobSpec], horizon: SimTime) -> Result<(), String> {
    if m.jobs_submitted != specs.len() {
        return Err(format!(
            "{} jobs submitted, {} given",
            m.jobs_submitted,
            specs.len()
        ));
    }
    let want: BTreeSet<u32> = specs.iter().map(|s| s.id.0).collect();
    let mut seen = BTreeSet::new();
    for j in &m.jobs {
        if !seen.insert(j.job) {
            return Err(format!("job {} recorded twice", j.job));
        }
        if !want.contains(&j.job) {
            return Err(format!("job {} recorded but never submitted", j.job));
        }
        if let Some(f) = j.finished {
            if f < j.arrival || f > horizon {
                return Err(format!(
                    "job {} finished at {f:?}, outside [{:?}, {horizon:?}]",
                    j.job, j.arrival
                ));
            }
            let jct = jct_mins(j.arrival, f);
            if j.jct_mins
                .is_none_or(|r| (r - jct).abs() > 1e-9 * jct.max(1.0))
            {
                return Err(format!(
                    "job {} records JCT {:?}, timestamps give {jct}",
                    j.job, j.jct_mins
                ));
            }
        }
        if j.met_deadline != j.finished.is_some_and(|f| f <= j.deadline) {
            return Err(format!(
                "job {} deadline flag disagrees with its timestamps",
                j.job
            ));
        }
    }
    if seen.len() != want.len() {
        let missing = want.difference(&seen).next().copied().unwrap_or_default();
        return Err(format!(
            "{} of {} jobs missing from the records (e.g. job {missing})",
            want.len() - seen.len(),
            want.len()
        ));
    }
    let (mean, met) = recompute(m);
    let reported = m.avg_jct_mins();
    if (reported - mean).abs() > 1e-9 * mean.max(1.0) {
        return Err(format!("mean JCT {reported} min, records give {mean} min"));
    }
    let flagged = m.jobs.iter().filter(|j| j.met_deadline).count();
    if flagged != met {
        return Err(format!(
            "{flagged} jobs flagged on time, records give {met}"
        ));
    }
    if m.leaked_tasks != 0 {
        return Err(format!("{} tasks leaked", m.leaked_tasks));
    }
    Ok(())
}

/// `RunMetrics` with the wall-clock fields stripped, as compared text.
pub fn stripped(m: &RunMetrics) -> String {
    let mut m = m.clone();
    m.clear_wall_clock();
    serde_json::to_string(&m).expect("RunMetrics serializes")
}

/// Two runs that must agree once wall-clock fields are stripped.
pub fn same_run(what: &str, a: &RunMetrics, b: &RunMetrics) -> Result<(), String> {
    if stripped(a) == stripped(b) {
        return Ok(());
    }
    let (ma, da) = recompute(a);
    let (mb, db) = recompute(b);
    Err(format!(
        "{what}: runs differ (mean JCT {ma} vs {mb} min, {da} vs {db} deadlines met, {} vs {} records)",
        a.jobs.len(),
        b.jobs.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::JobRecord;
    use simcore::SimDuration;

    fn at(mins: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(mins)
    }

    fn record(job: u32, arrival: u64, finished: Option<u64>, deadline: u64) -> JobRecord {
        JobRecord {
            job,
            arrival: at(arrival),
            finished: finished.map(at),
            deadline: at(deadline),
            jct_mins: finished.map(|f| (f - arrival) as f64),
            waiting_secs: 0.0,
            accuracy_by_deadline: 0.0,
            required_accuracy: 0.0,
            urgency: 0,
            met_deadline: finished.is_some_and(|f| f <= deadline),
            met_accuracy: false,
        }
    }

    /// Two finished jobs and the specs they came from.
    fn good_run() -> (RunMetrics, Vec<JobSpec>) {
        let mut trace = workload::TraceConfig::paper_real(0.25, 16.0, 3);
        trace.jobs = 2;
        let specs = workload::TraceGenerator::new(trace).generate();
        let m = RunMetrics {
            jobs_submitted: 2,
            jobs: vec![
                record(specs[0].id.0, 0, Some(30), 60),
                record(specs[1].id.0, 10, Some(100), 60),
            ],
            ..Default::default()
        };
        (m, specs)
    }

    #[test]
    fn good_run_passes() {
        let (m, specs) = good_run();
        run_metrics(&m, &specs, at(1000)).expect("consistent run");
        assert_eq!(recompute(&m), (60.0, 1));
    }

    #[test]
    fn fires_on_a_task_on_a_crashed_server() {
        assert!(server_fault(true, 1).is_some());
        assert!(server_fault(true, 0).is_none());
        assert!(server_fault(false, 3).is_none());
    }

    #[test]
    fn fires_on_a_task_of_a_finished_unarrived_or_unknown_job() {
        assert!(task_fault(at(5), Some((at(1), false))).is_none());
        assert!(task_fault(at(5), Some((at(1), true))).is_some());
        assert!(task_fault(at(5), Some((at(9), false))).is_some());
        assert!(task_fault(at(5), None).is_some());
    }

    #[test]
    fn fires_on_a_mean_jct_that_disagrees_with_the_records() {
        let (mut m, specs) = good_run();
        m.jobs[1].jct_mins = Some(50.0);
        assert!(run_metrics(&m, &specs, at(1000)).is_err());
    }

    #[test]
    fn fires_on_a_wrong_deadline_flag() {
        let (mut m, specs) = good_run();
        m.jobs[1].met_deadline = true;
        assert!(run_metrics(&m, &specs, at(1000)).is_err());
    }

    #[test]
    fn fires_on_a_missing_or_doubled_job() {
        let (mut m, specs) = good_run();
        m.jobs.pop();
        assert!(run_metrics(&m, &specs, at(1000)).is_err());
        let (mut m, specs) = good_run();
        m.jobs[1] = m.jobs[0].clone();
        assert!(run_metrics(&m, &specs, at(1000)).is_err());
    }

    #[test]
    fn fires_on_a_finish_outside_arrival_and_horizon() {
        let (m, specs) = good_run();
        assert!(run_metrics(&m, &specs, at(90)).is_err());
        let (mut m, specs) = good_run();
        m.jobs[0].arrival = at(40);
        m.jobs[0].jct_mins = Some(-10.0);
        assert!(run_metrics(&m, &specs, at(1000)).is_err());
    }

    #[test]
    fn fires_on_leaked_tasks() {
        let (mut m, specs) = good_run();
        m.leaked_tasks = 1;
        assert!(run_metrics(&m, &specs, at(1000)).is_err());
    }

    #[test]
    fn fires_on_runs_that_differ() {
        let (a, _) = good_run();
        let mut b = a.clone();
        b.decision_times_ms.push(1.0);
        same_run("wall clock only", &a, &b).expect("wall-clock fields are stripped");
        b.jobs[0].finished = Some(at(31));
        assert!(same_run("moved finish", &a, &b).is_err());
    }
}
