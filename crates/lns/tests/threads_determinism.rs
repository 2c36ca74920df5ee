//! Cooperative-round determinism is independent of the thread count.
//!
//! The vendored rayon shim exposes `set_threads_override` exactly so this
//! suite can prove the contract DESIGN.md §8 states: every job's best
//! solution, objective, iteration count and operator statistics are a
//! pure function of `(jobs, seeds, config)`, and outcomes arrive in job
//! order — the number of OS threads that happened to execute the workers
//! is unobservable. Everything runs in ONE `#[test]` function because the
//! override is process-global.

use rex_lns::toy::{
    GreedyInsertInPlace, PartitionProblem, RandomRemoveInPlace, WorstBinRemoveInPlace,
};
use rex_lns::{
    cooperative_round, round_seed, Engine, LnsConfig, RoundJob, SearchOutcome, SimulatedAnnealing,
};

const ITERS: u64 = 1_200;
const SEED: u64 = 2024;

/// Six toy sub-problems of different sizes standing in for partitions.
fn problems() -> Vec<PartitionProblem> {
    (0..6)
        .map(|i| PartitionProblem::random(24 + 5 * i, 3 + i % 2, 77 + i as u64))
        .collect()
}

fn run_round(problems: &[PartitionProblem], round: u64) -> Vec<SearchOutcome<Vec<usize>>> {
    let jobs: Vec<RoundJob<'_, PartitionProblem>> = problems
        .iter()
        .enumerate()
        .map(|(p, problem)| RoundJob {
            engine: Engine::new(
                problem,
                problem.all_in_first_bin(),
                vec![
                    Box::new(RandomRemoveInPlace),
                    Box::new(WorstBinRemoveInPlace),
                ],
                vec![Box::new(GreedyInsertInPlace)],
                Box::new(SimulatedAnnealing::for_normalized_loads(ITERS as usize)),
                LnsConfig {
                    max_iters: ITERS,
                    log_trajectory: true,
                    ..Default::default()
                },
            ),
            seed: round_seed(SEED, round, p),
        })
        .collect();
    cooperative_round(jobs)
}

/// Bit-exact comparison of two rounds' outcomes, job by job.
fn assert_same(a: &[SearchOutcome<Vec<usize>>], b: &[SearchOutcome<Vec<usize>>], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: job count differs");
    for (j, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.best, y.best, "{label}: job {j} best differs");
        assert_eq!(
            x.best_objective.to_bits(),
            y.best_objective.to_bits(),
            "{label}: job {j} objective differs"
        );
        assert_eq!(
            x.iterations, y.iterations,
            "{label}: job {j} iterations differ"
        );
        assert_eq!(x.stats.accepted, y.stats.accepted, "{label}: job {j}");
        assert_eq!(x.stats.new_bests, y.stats.new_bests, "{label}: job {j}");
        let uses = |o: &SearchOutcome<Vec<usize>>| -> Vec<u64> {
            o.stats.destroy_ops.iter().map(|s| s.uses).collect()
        };
        assert_eq!(uses(x), uses(y), "{label}: job {j} operator uses differ");
        let traj = |o: &SearchOutcome<Vec<usize>>| -> Vec<(u64, u64)> {
            o.trajectory
                .iter()
                .map(|t| (t.iteration, t.objective.to_bits()))
                .collect()
        };
        assert_eq!(traj(x), traj(y), "{label}: job {j} trajectory differs");
    }
}

/// One test function on purpose: `set_threads_override` is process-global,
/// and cargo runs `#[test]` functions on concurrent threads by default.
#[test]
fn cooperative_rounds_are_thread_count_independent() {
    let problems = problems();

    // Reference run with the default thread count.
    rayon::set_threads_override(None);
    let reference: Vec<_> = (0..2).map(|round| run_round(&problems, round)).collect();

    // Outcomes are in job order: job `j` solved problem `j`.
    for (j, out) in reference[0].iter().enumerate() {
        assert_eq!(out.best.len(), problems[j].items.len());
        assert!(out.iterations > 0);
    }
    // Distinct rounds reseed every job.
    assert!(
        reference[0]
            .iter()
            .zip(&reference[1])
            .any(|(a, b)| a.best != b.best || a.stats.accepted != b.stats.accepted),
        "round seeds must differ between rounds"
    );

    for threads in [1usize, 2, 3, 8] {
        rayon::set_threads_override(Some(threads));
        for (round, expected) in reference.iter().enumerate() {
            let got = run_round(&problems, round as u64);
            assert_same(expected, &got, &format!("round {round} @{threads}t"));
        }
    }

    rayon::set_threads_override(None);
}
