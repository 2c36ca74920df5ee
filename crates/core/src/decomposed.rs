//! Cooperative decomposed SRA search: partition → parallel sub-solves →
//! merge → boundary repair, repeated for a fixed number of rounds.
//!
//! The serial engine runs every iteration over the whole fleet. The
//! decomposed solver instead splits the fleet into `k` machine
//! neighborhoods ([`rex_cluster::partition_subfleet`]), runs one in-place
//! LNS worker per neighborhood on a **sub-instance** containing only that
//! neighborhood's machines and shards, and splices the per-partition
//! solutions back together. Each covered iteration touches `O(n/k)`
//! machines instead of `O(n)` — the source of the wall-clock win on a
//! single core, and the reason it also parallelizes cleanly when cores
//! exist.
//!
//! One round:
//!
//! 1. **Partition** the fleet by current loads (LPT over machines; shards
//!    follow the machine hosting them), recursively to `depth` levels.
//!    Partitions are disjoint in both machines and shards, so their
//!    solutions compose without conflicts. The global `k_return` vacancy
//!    quota is split into per-partition shares backed by each partition's
//!    own vacancies. Depth 1 is the degenerate tree: the root splits once
//!    and its children are the leaves.
//! 2. **Sub-solve** every partition in parallel
//!    ([`rex_lns::cooperative_round`]) with seeds from
//!    [`rex_lns::round_seed`]`(seed, round, partition)` — fixed before the
//!    parallel section, so the result is bit-identical for any
//!    `REX_THREADS`.
//! 3. **Merge** by splicing each partition's placement into the global
//!    one (conflict-free by construction; capacity- and vacancy-feasible
//!    because every sub-solution is, and the quota shares sum to
//!    `k_return`). Below depth 1, each internal tree level is then
//!    repaired bottom-up the same way before the root's pass.
//! 4. **Boundary repair**: a short serial LNS pass on the *global* problem
//!    starting from the merged placement. This is where shards cross
//!    partition borders, and where the global `plan_on_best` gate sees
//!    candidates against the true initial placement.
//!
//! Re-partitioning by the new loads each round rotates the neighborhood
//! structure, so shards trapped in an unlucky partition get fresh chances.
//!
//! ## Fidelity caveats (accepted, documented)
//!
//! Sub-instances use the **round-start placement as their initial**: the
//! sub-objective's migration-cost term and `α`-escapability are measured
//! from the round start, not the global initial. The boundary pass and the
//! final objective always use the global initial, and the returned best is
//! chosen by the *global* objective, so reported numbers are exact; only
//! the sub-searches' guidance is approximate. The global best is tracked
//! explicitly and seeded with the starting solution, so the decomposed
//! search never returns anything worse than the monolithic start.

use crate::destroy::default_destroys_in_place;
use crate::problem::SraProblem;
use crate::repair::default_repairs_in_place;
use crate::sra::{starting_solution, SraConfig};
use rex_cluster::{
    partition_subfleet, Assignment, ClusterError, Instance, Machine, MachineId, PartitionSpec,
    Shard, ShardId,
};
use rex_lns::{
    cooperative_round, round_seed, Engine, EngineStats, LnsConfig, LnsProblem, RoundJob,
    SearchOutcome, TrajectoryPoint,
};
use rex_obs::Recorder;
use std::time::Duration;

/// Recombination rounds per solve. Each round re-partitions by current
/// loads, so this is also how many distinct neighborhood structures the
/// search explores.
pub const ROUNDS: u64 = 4;

/// Sub-instance for one partition (local dense ids), plus its drained
/// machines in local ids. The sub-instance's `initial` is the placement
/// the node starts from.
struct SubCtx {
    inst: Instance,
    drain: Vec<MachineId>,
}

/// Builds the local sub-instance for one tree node (`part`). Local
/// machine `j` is `part.machines[j]`; local shard `j` is
/// `part.shards[j]`; the sub-initial is `placement` restricted to the
/// node. Exchange flags are dropped — inside a node every machine is just
/// capacity — and the sub `k_return` is the node's vacancy-quota share.
fn build_sub(
    inst: &Instance,
    placement: &[MachineId],
    part: &PartitionSpec,
    is_drained: impl Fn(MachineId) -> bool,
    label: String,
) -> SubCtx {
    let mut local_of = vec![u32::MAX; inst.n_machines()];
    let machines: Vec<Machine> = part
        .machines
        .iter()
        .enumerate()
        .map(|(j, &m)| {
            local_of[m.idx()] = j as u32;
            Machine::new(MachineId::from(j), inst.machines[m.idx()].capacity)
        })
        .collect();
    let shards: Vec<Shard> = part
        .shards
        .iter()
        .enumerate()
        .map(|(j, &s)| {
            Shard::new(
                ShardId::from(j),
                *inst.demand(s),
                inst.shards[s.idx()].move_cost,
            )
        })
        .collect();
    let initial: Vec<MachineId> = part
        .shards
        .iter()
        .map(|&s| MachineId::from(local_of[placement[s.idx()].idx()] as usize))
        .collect();
    let drain: Vec<MachineId> = part
        .machines
        .iter()
        .filter(|&&m| is_drained(m))
        .map(|&m| MachineId::from(local_of[m.idx()] as usize))
        .collect();
    let sub_inst = Instance {
        dims: inst.dims,
        machines,
        shards,
        initial,
        k_return: part.vacancy_quota,
        alpha: inst.alpha,
        label,
    };
    debug_assert!(
        sub_inst.validate().is_ok(),
        "sub-instance of a feasible placement must validate"
    );
    SubCtx {
        inst: sub_inst,
        drain,
    }
}

/// Runs the cooperative decomposed search (see module docs) and returns
/// `(best, iterations, stats, trajectory)` in [`crate::sra`]'s search
/// contract. Stats and trajectory are empty — per-worker engine stats do
/// not aggregate meaningfully across sub-instances.
///
/// Deterministic for a fixed `(problem, cfg, seed)` and byte-identical
/// across `REX_THREADS` settings: all seeds are fixed before each parallel
/// section, workers run untraced, and every trace event is emitted
/// serially after the round barrier.
pub fn decomposed_search(
    problem: &SraProblem<'_>,
    cfg: &SraConfig,
    seed: u64,
    rec: &mut Recorder,
) -> Result<(Assignment, u64, Option<EngineStats>, Vec<TrajectoryPoint>), ClusterError> {
    let inst = problem.inst;
    // At least two machines per partition, at least one partition.
    let k_eff = cfg.partitions.min(inst.n_machines() / 2).max(1);
    let drained: Vec<MachineId> = (0..inst.n_machines())
        .map(MachineId::from)
        .filter(|&m| problem.is_drained(m))
        .collect();

    let mut current = starting_solution(problem)?;
    let mut best = current.clone();
    let mut best_val = LnsProblem::objective(problem, &best);
    let mut iterations = 0u64;

    // Budget split: each partition worker gets the full per-worker budget
    // spread over the rounds (total covered iterations ≈ cfg.iters per
    // partition, each over an O(n/k) sub-instance); the serial boundary
    // pass gets a small slice of full-fleet iterations per round.
    let sub_iters = (cfg.iters / ROUNDS).max(1);
    let boundary_iters = (cfg.iters / (ROUNDS * 8)).max(50);
    let sub_tl = cfg.time_limit.map(|t| t / (2 * ROUNDS as u32));

    let depth = cfg.depth.max(1);

    if rec.is_active() {
        rec.span_open(
            "sra",
            "decomposed",
            vec![
                ("partitions", k_eff.into()),
                ("depth", depth.into()),
                ("rounds", ROUNDS.into()),
                ("sub_iters", sub_iters.into()),
                ("boundary_iters", boundary_iters.into()),
            ],
        );
    }

    for round in 0..ROUNDS {
        let (next, round_iters, val) = hierarchical_round(
            problem,
            cfg,
            seed,
            round,
            k_eff,
            depth,
            &drained,
            &current,
            rec,
            sub_iters,
            boundary_iters,
            sub_tl,
        )?;
        current = next;
        iterations += round_iters;
        if val < best_val {
            best_val = val;
            best = current.clone();
        }
    }

    if rec.is_active() {
        rec.span_close(
            "sra",
            "decomposed",
            vec![
                ("best_objective", best_val.into()),
                ("iterations", iterations.into()),
            ],
        );
    }
    Ok((best, iterations, None, Vec::new()))
}

/// Recursively splits `node` to the requested depth, collecting leaves in
/// traversal (DFS) order and internal nodes (strictly below the root) per
/// level for the bottom-up repair sweep. A node splits only while levels
/// remain and it can give every child at least two machines; the root is
/// never stored — its repair is the round's global boundary pass.
/// Vacancy quotas are conserved at every split ([`partition_subfleet`]).
#[allow(clippy::too_many_arguments)]
fn split_rec(
    inst: &Instance,
    placement: &[MachineId],
    loads: &[f64],
    drained: &[MachineId],
    node: PartitionSpec,
    level: usize,
    depth: usize,
    k: usize,
    leaves: &mut Vec<PartitionSpec>,
    internal: &mut [Vec<PartitionSpec>],
) {
    if level >= depth || k < 2 || node.machines.len() < 2 * k {
        leaves.push(node);
        return;
    }
    let children = partition_subfleet(
        inst,
        placement,
        loads,
        &node.machines,
        &node.shards,
        k,
        node.vacancy_quota,
        drained,
    );
    if level > 0 {
        internal[level - 1].push(node);
    }
    for child in children {
        split_rec(
            inst,
            placement,
            loads,
            drained,
            child,
            level + 1,
            depth,
            k,
            leaves,
            internal,
        );
    }
}

/// Solves every shard-holding node of one tree level in one cooperative
/// round, starting each from the placement in `merged`, and splices the
/// results back into it. Nodes of one level are machine-disjoint, so the splices are
/// conflict-free; each node keeps its conserved vacancy quota, so the
/// merged placement stays globally feasible. Plannability is a property
/// of the *global* migration, so node searches skip plan checks entirely;
/// the root's boundary pass and the final planning step gate on the real
/// thing.
///
/// Node `i` runs with seed `round_seed(seed, round, base + i)`. Returns
/// `(node index, outcome)` per solved node, in node order.
#[allow(clippy::too_many_arguments)]
fn solve_level(
    problem: &SraProblem<'_>,
    cfg: &SraConfig,
    seed: u64,
    round: u64,
    nodes: &[PartitionSpec],
    base: usize,
    iters: u64,
    time_limit: Option<Duration>,
    merged: &mut [MachineId],
) -> Result<Vec<(usize, SearchOutcome<Assignment>)>, ClusterError> {
    let inst = problem.inst;
    let placement = merged.to_vec();
    let (idx, subs): (Vec<usize>, Vec<SubCtx>) = nodes
        .iter()
        .enumerate()
        .filter(|(_, nd)| !nd.shards.is_empty())
        .map(|(i, nd)| {
            let label = format!("{}#r{round}n{}", inst.label, base + i);
            (
                i,
                build_sub(inst, &placement, nd, |m| problem.is_drained(m), label),
            )
        })
        .unzip();
    let sub_problems: Vec<SraProblem<'_>> = subs
        .iter()
        .map(|sc| {
            let mut sp = SraProblem::new(&sc.inst, cfg.objective)
                .with_drain(&sc.drain)
                .without_plan_checks();
            sp.smoothing = problem.smoothing;
            sp
        })
        .collect();
    let engine_cfg = LnsConfig {
        max_iters: iters,
        time_limit,
        intensity: cfg.intensity,
        ..Default::default()
    };
    let jobs = sub_problems
        .iter()
        .zip(&idx)
        .map(|(sp, &i)| {
            Ok(RoundJob {
                engine: Engine::new(
                    sp,
                    Assignment::from_placement(sp.inst, sp.inst.initial.clone())?,
                    default_destroys_in_place(cfg.destroy_cap),
                    default_repairs_in_place(),
                    cfg.acceptance.build(iters),
                    engine_cfg,
                ),
                seed: round_seed(seed, round, base + i),
            })
        })
        .collect::<Result<Vec<_>, ClusterError>>()?;
    let outcomes = cooperative_round(jobs);
    for (&i, out) in idx.iter().zip(&outcomes) {
        let nd = &nodes[i];
        for (j, &s) in nd.shards.iter().enumerate() {
            merged[s.idx()] = nd.machines[out.best.placement()[j].idx()];
        }
    }
    Ok(idx.into_iter().zip(outcomes).collect())
}

/// One round of the depth-d decomposition (POP-style): recursive
/// partition → leaf solves in one flat cooperative round → bottom-up
/// per-level internal-node repairs (machine-disjoint within a level, plan
/// checks off, each node holding its conserved vacancy quota) → one
/// global serial boundary repair with the usual plan gating. Depth 1 is
/// the degenerate tree: leaves are the root's children and there are no
/// internal levels. Returns `(new current, iterations, global objective)`.
///
/// Determinism: every engine's seed is `round_seed(seed, round,
/// job_idx)` where `job_idx` numbers the engines launched this round in
/// fixed traversal order (leaves, then internal levels bottom-up, then
/// the global pass) — all assigned before any parallel section, so the
/// round is byte-identical for any `REX_THREADS`.
#[allow(clippy::too_many_arguments)]
fn hierarchical_round(
    problem: &SraProblem<'_>,
    cfg: &SraConfig,
    seed: u64,
    round: u64,
    k_eff: usize,
    depth: usize,
    drained: &[MachineId],
    current: &Assignment,
    rec: &mut Recorder,
    sub_iters: u64,
    boundary_iters: u64,
    sub_tl: Option<Duration>,
) -> Result<(Assignment, u64, f64), ClusterError> {
    let inst = problem.inst;
    let loads = current.loads(inst);
    let root = PartitionSpec {
        machines: (0..inst.n_machines()).map(MachineId::from).collect(),
        shards: (0..inst.n_shards()).map(ShardId::from).collect(),
        vacancy_quota: inst.k_return,
    };
    let mut leaves: Vec<PartitionSpec> = Vec::new();
    let mut internal: Vec<Vec<PartitionSpec>> = vec![Vec::new(); depth - 1];
    split_rec(
        inst,
        current.placement(),
        &loads,
        drained,
        root,
        0,
        depth,
        k_eff,
        &mut leaves,
        &mut internal,
    );

    if rec.is_active() {
        rec.span_open(
            "sra",
            "round",
            vec![
                ("round", round.into()),
                ("depth", depth.into()),
                ("leaves", leaves.len().into()),
            ],
        );
    }

    // Stage 1: solve every leaf in one flat cooperative round (no nested
    // parallelism — the tree only shapes *which* sub-instances exist).
    let mut merged = current.placement().to_vec();
    let solved = solve_level(
        problem,
        cfg,
        seed,
        round,
        &leaves,
        0,
        sub_iters,
        sub_tl,
        &mut merged,
    )?;
    let mut iterations: u64 = solved.iter().map(|(_, out)| out.iterations).sum();
    if rec.is_active() {
        for (i, out) in &solved {
            rec.event(
                "lns",
                "partition",
                vec![
                    ("round", round.into()),
                    ("partition", (*i).into()),
                    ("machines", leaves[*i].machines.len().into()),
                    ("shards", leaves[*i].shards.len().into()),
                    ("seed", round_seed(seed, round, *i).into()),
                    ("objective", out.best_objective.into()),
                    ("iterations", out.iterations.into()),
                ],
            );
        }
    }
    let mut next_job = leaves.len();

    // Stage 2: bottom-up repairs across each internal level, each level in
    // one cooperative round from the placement merged so far.
    for nodes in internal.iter().rev() {
        let solved = solve_level(
            problem,
            cfg,
            seed,
            round,
            nodes,
            next_job,
            boundary_iters,
            sub_tl,
            &mut merged,
        )?;
        iterations += solved.iter().map(|(_, out)| out.iterations).sum::<u64>();
        next_job += nodes.len();
    }

    // Stage 3: the root's repair — a global serial boundary pass with
    // cross-node moves, judged against the true initial placement with
    // the usual plan-on-best gating. Merged placements are feasible by
    // construction, so the engine's feasible-start requirement holds.
    let engine = Engine::new(
        problem,
        Assignment::from_placement(inst, merged)?,
        default_destroys_in_place(cfg.destroy_cap),
        default_repairs_in_place(),
        cfg.acceptance.build(boundary_iters),
        LnsConfig {
            max_iters: boundary_iters,
            time_limit: sub_tl,
            intensity: cfg.intensity,
            ..Default::default()
        },
    );
    let out = engine.run_recorded(round_seed(seed, round, next_job), rec);
    iterations += out.iterations;
    let next = out.best;
    let val = LnsProblem::objective(problem, &next);
    if rec.is_active() {
        rec.span_close("sra", "round", vec![("objective", val.into())]);
    }
    Ok((next, iterations, val))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sra::{solve, solve_traced, solve_with_drain, AcceptanceKind};
    use rex_cluster::{InstanceBuilder, Objective, ObjectiveKind};

    /// A fleet big enough to split: `hot` heavily loaded machines, `cool`
    /// lightly loaded ones, a tail of vacancies, one exchange machine.
    fn fleet(hot: usize, cool: usize, vacant: usize, seed: u64) -> Instance {
        let mut b = InstanceBuilder::new(1).alpha(0.05).label("decomp");
        let mut rng = seed;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut ms = Vec::new();
        for _ in 0..(hot + cool + vacant) {
            ms.push(b.machine(&[100.0]));
        }
        let _x = b.exchange_machine(&[100.0]);
        for &m in ms.iter().take(hot) {
            for _ in 0..6 {
                b.shard(&[10.0 + 4.0 * next()], 1.0, m);
            }
        }
        for i in 0..cool {
            b.shard(&[5.0 + 5.0 * next()], 1.0, ms[hot + i]);
        }
        b.build().unwrap()
    }

    fn cfg(partitions: usize) -> SraConfig {
        SraConfig {
            iters: 2_000,
            partitions,
            objective: Objective::pure(ObjectiveKind::PeakLoad),
            acceptance: AcceptanceKind::SimulatedAnnealing,
            ..Default::default()
        }
    }

    #[test]
    fn decomposed_solve_improves_balance() {
        let inst = fleet(4, 8, 4, 7);
        let res = solve(&inst, &cfg(4)).unwrap();
        assert!(
            res.final_report.peak < res.initial_report.peak,
            "final {} vs initial {}",
            res.final_report.peak,
            res.initial_report.peak
        );
        res.assignment.check_target(&inst).unwrap();
        assert_eq!(res.returned_machines.len(), inst.k_return);
    }

    #[test]
    fn decomposed_solve_is_deterministic() {
        let inst = fleet(4, 8, 4, 3);
        let a = solve(&inst, &cfg(4)).unwrap();
        let b = solve(&inst, &cfg(4)).unwrap();
        assert_eq!(a.objective_value, b.objective_value);
        assert_eq!(a.assignment.placement(), b.assignment.placement());
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn decomposed_never_worse_than_initial() {
        for seed in 0..3 {
            let inst = fleet(3, 6, 3, seed);
            let c = SraConfig {
                seed,
                iters: 600,
                ..cfg(3)
            };
            let res = solve(&inst, &c).unwrap();
            assert!(res.final_report.peak <= res.initial_report.peak + 1e-9);
        }
    }

    #[test]
    fn decomposed_matches_monolithic_quality_on_small_fleet() {
        let inst = fleet(4, 8, 4, 11);
        let mono = solve(&inst, &cfg(0)).unwrap();
        let deco = solve(&inst, &cfg(4)).unwrap();
        assert!(
            deco.final_report.peak <= mono.final_report.peak * 1.01 + 1e-9,
            "decomposed {} vs monolithic {}",
            deco.final_report.peak,
            mono.final_report.peak
        );
    }

    #[test]
    fn decomposed_respects_drain() {
        let inst = fleet(4, 8, 4, 5);
        let drain = [MachineId(0)];
        let res = solve_with_drain(&inst, &cfg(4), &drain).unwrap();
        assert!(res.assignment.is_vacant(MachineId(0)));
        assert!(!res.returned_machines.contains(&MachineId(0)));
        res.assignment.check_target(&inst).unwrap();
    }

    #[test]
    fn partitions_clamp_to_tiny_fleets() {
        // 3 machines: k_eff = 1, a single partition covering everything.
        let mut b = InstanceBuilder::new(1).label("tiny");
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        let _x = b.exchange_machine(&[10.0]);
        for _ in 0..6 {
            b.shard(&[1.0], 1.0, m0);
        }
        let inst = b.build().unwrap();
        let res = solve(&inst, &cfg(8)).unwrap();
        assert!(res.final_report.peak <= res.initial_report.peak + 1e-9);
    }

    #[test]
    fn hierarchical_solve_improves_and_returns_quota() {
        let inst = fleet(6, 18, 8, 13);
        let c = SraConfig { depth: 2, ..cfg(2) };
        let res = solve(&inst, &c).unwrap();
        assert!(
            res.final_report.peak < res.initial_report.peak,
            "final {} vs initial {}",
            res.final_report.peak,
            res.initial_report.peak
        );
        res.assignment.check_target(&inst).unwrap();
        assert_eq!(res.returned_machines.len(), inst.k_return);
    }

    #[test]
    fn hierarchical_solve_is_deterministic() {
        let inst = fleet(6, 18, 8, 17);
        let c = SraConfig { depth: 3, ..cfg(2) };
        let a = solve(&inst, &c).unwrap();
        let b = solve(&inst, &c).unwrap();
        assert_eq!(a.objective_value, b.objective_value);
        assert_eq!(a.assignment.placement(), b.assignment.placement());
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn hierarchical_matches_flat_quality() {
        let inst = fleet(6, 18, 8, 19);
        let flat = solve(&inst, &cfg(4)).unwrap();
        let hier = solve(&inst, &SraConfig { depth: 2, ..cfg(2) }).unwrap();
        assert!(
            hier.final_report.peak <= flat.final_report.peak * 1.01 + 1e-9,
            "hierarchical {} vs flat {}",
            hier.final_report.peak,
            flat.final_report.peak
        );
    }

    #[test]
    fn hierarchical_respects_drain() {
        let inst = fleet(6, 18, 8, 5);
        let drain = [MachineId(0)];
        let c = SraConfig { depth: 2, ..cfg(2) };
        let res = solve_with_drain(&inst, &c, &drain).unwrap();
        assert!(res.assignment.is_vacant(MachineId(0)));
        assert!(!res.returned_machines.contains(&MachineId(0)));
        res.assignment.check_target(&inst).unwrap();
    }

    #[test]
    fn traced_hierarchical_matches_untraced_and_balances_spans() {
        let inst = fleet(6, 18, 8, 9);
        let c = SraConfig { depth: 2, ..cfg(2) };
        let plain = solve(&inst, &c).unwrap();
        let mut rec = Recorder::active();
        let traced = solve_traced(&inst, &c, &[], &mut rec).unwrap();
        assert_eq!(plain.objective_value, traced.objective_value);
        assert_eq!(plain.assignment.placement(), traced.assignment.placement());
        assert_eq!(plain.iterations, traced.iterations);
        assert_eq!(rec.open_spans(), 0);
    }

    #[test]
    fn traced_decomposed_matches_untraced_and_balances_spans() {
        let inst = fleet(4, 8, 4, 9);
        let plain = solve(&inst, &cfg(4)).unwrap();
        let mut rec = Recorder::active();
        let traced = solve_traced(&inst, &cfg(4), &[], &mut rec).unwrap();
        assert_eq!(plain.objective_value, traced.objective_value);
        assert_eq!(plain.assignment.placement(), traced.assignment.placement());
        assert_eq!(plain.iterations, traced.iterations);
        assert_eq!(rec.open_spans(), 0);
        assert!(rec
            .events()
            .iter()
            .any(|e| e.layer == "sra" && e.name == "decomposed"));
        let partitions = rec
            .events()
            .iter()
            .filter(|e| e.layer == "lns" && e.name == "partition")
            .count();
        assert!(partitions > 0, "partition summaries must be narrated");
    }
}
