//! The four workloads: how each builds its inputs from a seed, what its
//! timed call is, how its outputs are checked, and how its wall time is
//! split across layers from outside (by timing each layer's public entry
//! point on the same inputs).

use rex_baselines::{GreedyRebalancer, Rebalancer};
use std::io::Write as _;

use rex_cluster::{
    plan_migration, verify_schedule, Assignment, BalanceReport, ClusterError, FleetSpec,
    GenerationSpec, Instance, LoadScriptSpec, MachineId, MigrationPlan, RackCrashSpec,
    ScenarioSpec, SraSpec, WorkloadSpec,
};
use rex_core::{run_search, solve, solve_traced, SolveOptions, SraConfig, SraProblem, SraResult};
use rex_obs::Recorder;
use rex_router::{FlashCrowd, PolicyKind, Router, RouterConfig, RouterReport};
use rex_runtime::controller::{plan_evacuation, plan_load_rebalance};
use rex_runtime::{
    ControllerConfig, ControllerPolicy, DriftSpec, FaultSpec, MetricsExport, RuntimeConfig,
    Simulation,
};
use rex_workload::synthetic::{generate, generate_workload, Placement, SynthConfig};

use crate::harness::{
    hash_of, instance_seed, median, metric, mid_mean, ratio, split_loop, timed_call, timed_loop,
    timed_pair, HashWriter, Outcome, Split, Timed,
};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["drift_sra", "solve_web", "route_flash", "popularity_tick"];

/// Input size: `Full` is what the benchmark measures, `Tiny` is for the
/// benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Runs workload `name` on inputs derived from `seed`: the end-to-end
/// metrics, or with `trace` the per-layer split.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match (name, trace) {
        ("drift_sra" | "popularity_tick", false) => {
            let k = instances(name, size).0;
            loop_e2e(name, k, seconds, &mut out, |i| {
                loop_input(name, instance_seed(seed, i), size)
            })
        }
        ("drift_sra" | "popularity_tick", true) => {
            let k = instances(name, size).1;
            loop_split(k, seconds, &mut out, |i| {
                loop_input(name, instance_seed(seed, i), size)
            })
        }
        ("solve_web", false) => solve_e2e(seed, size, seconds, &mut out),
        ("solve_web", true) => solve_split(seed, size, seconds, &mut out),
        ("route_flash", false) => route_e2e(seed, size, seconds, &mut out),
        ("route_flash", true) => route_split(seed, size, seconds, &mut out),
        _ => {
            return Err(format!(
                "unknown workload `{name}` (expected one of {WORKLOADS:?})"
            ))
        }
    }
    Ok(out)
}

/// Instances per run: `(end-to-end, traced)`. One seed yields several
/// independent instances; reporting the median call time and the
/// interquartile mean of each outcome over them evens out how much work
/// one instance happens to generate (how hard its solves are, where its
/// crash lands). Each count is sized so one pass fits a 20 s run on a
/// 2-core host; the traced run makes several timed calls per instance, so
/// it takes fewer.
fn instances(name: &str, size: Size) -> (usize, usize) {
    match (name, size) {
        (_, Size::Tiny) => (2, 2),
        ("drift_sra", _) => (10, 4),
        ("solve_web", _) => (8, 3),
        ("route_flash", _) => (14, 6),
        _ => (24, 8),
    }
}

// ---- closed loops: drift_sra and popularity_tick --------------------------

/// One closed-loop instance: the fleet, the runtime config, and the
/// machines its crash takes down (for timing the evacuation planner).
struct LoopInput {
    inst: Instance,
    cfg: RuntimeConfig,
    crashed: Vec<MachineId>,
    generate_s: f64,
}

fn loop_input(name: &str, seed: u64, size: Size) -> LoopInput {
    if name == "drift_sra" {
        drift_sra_input(seed, size)
    } else {
        popularity_tick_input(seed, size)
    }
}

/// `drift_sra`: the config `rex simulate` builds for a correlated 3-dim
/// hotspot fleet under log-normal drift with one crash and recovery, SRA
/// controller at its defaults.
fn drift_sra_input(seed: u64, size: Size) -> LoopInput {
    let (machines, exchange, shards, ticks) = match size {
        Size::Full => (40, 5, 400, 1_600),
        Size::Tiny => (12, 2, 96, 800),
    };
    let (inst, generate_s) = timed_call(|| {
        generate(&SynthConfig {
            n_machines: machines,
            n_exchange: exchange,
            n_shards: shards,
            placement: Placement::Hotspot(0.4),
            seed,
            ..Default::default()
        })
        .expect("drift_sra instance generates")
    });
    let crash = 3;
    let cfg = RuntimeConfig {
        ticks,
        seed,
        qps: 16.0,
        latency_samples_per_tick: 32,
        faults: vec![FaultSpec::Crash {
            at: ticks * 5 / 8,
            machine: crash,
            recover_at: Some(ticks * 4 / 5),
        }],
        drift: Some(DriftSpec {
            every_ticks: 400,
            sigma: 0.15,
            target_utilization: inst.stringency().clamp(0.3, 0.9),
        }),
        // Rebalance on the cooldown's cadence (the imbalance of a hotspot
        // fleet never falls to 1.0), so every instance makes the same number
        // of decisions and run time does not hinge on whether a threshold
        // happens to be crossed.
        controller: ControllerConfig {
            imbalance_threshold: 1.0,
            ..Default::default()
        },
        ..Default::default()
    };
    LoopInput {
        inst,
        cfg,
        crashed: vec![MachineId::from(crash as usize)],
        generate_s,
    }
}

/// `popularity_tick`: the E17 heterogeneous fleet (three generations at
/// 1x/2x/4x plus old-generation spares) scaled up, under Zipf popularity
/// drift and a diurnal envelope, with one rack crashing at a third of the
/// horizon and recovering at half; greedy controller.
fn popularity_tick_input(seed: u64, size: Size) -> LoopInput {
    let (scale, shards, ticks) = match size {
        Size::Full => (10, 1_600, 40_000),
        Size::Tiny => (1, 160, 2_000),
    };
    let fleet = FleetSpec {
        generations: vec![
            GenerationSpec {
                name: "gen-1x".into(),
                count: 6 * scale,
                scale: 1.0,
            },
            GenerationSpec {
                name: "gen-2x".into(),
                count: 6 * scale,
                scale: 2.0,
            },
            GenerationSpec {
                name: "gen-4x".into(),
                count: 4 * scale,
                scale: 4.0,
            },
        ],
        exchange: 2 * scale,
        exchange_scale: 1.0,
        racks: 16.min(4 * scale),
    };
    let rack = 1;
    let crashed = fleet.rack_members(rack).map(MachineId::from).collect();
    let w = WorkloadSpec {
        scenario: ScenarioSpec {
            ticks,
            qps_per_tick: 8.0,
            seed,
            // The controller polls at the cadence E17 gives its SRA clause;
            // the policy is switched to greedy below.
            sra: Some(SraSpec {
                every_ticks: ticks / 20,
                iters: 2_500,
            }),
            ..Default::default()
        },
        fleet: Some(fleet),
        load: Some(LoadScriptSpec {
            diurnal_amplitude: 0.1,
            ticks_per_hour: ticks / 8,
            zipf_alpha: 0.9,
            drift_every_ticks: ticks / 16,
            swaps_per_epoch: shards / 4,
            target_utilization: 0.75,
        }),
        rack_crashes: vec![RackCrashSpec {
            at_tick: ticks / 3,
            rack,
            recover_at_tick: Some(ticks / 2),
        }],
    };
    let synth = SynthConfig {
        n_shards: shards,
        dims: 1,
        stringency: 0.65,
        alpha: 0.02,
        placement: Placement::Hotspot(0.35),
        ..Default::default()
    };
    let (inst, generate_s) =
        timed_call(|| generate_workload(&w, &synth).expect("popularity_tick instance generates"));
    let mut cfg = RuntimeConfig::from_workload(&w, inst.n_machines());
    cfg.controller.policy = ControllerPolicy::Greedy;
    cfg.copy_bandwidth = 0.5;
    LoopInput {
        inst,
        cfg,
        crashed,
        generate_s,
    }
}

fn loop_checks(e: &MetricsExport) -> Vec<String> {
    let mut problems = Vec::new();
    if e.counters.transient_violations != 0 {
        problems.push(format!(
            "{} transient capacity violations",
            e.counters.transient_violations
        ));
    }
    if e.latency.count == 0 {
        problems.push("no latency samples".into());
    }
    problems
}

fn loop_e2e(
    name: &str,
    k: usize,
    seconds: f64,
    out: &mut Outcome,
    input: impl Fn(usize) -> LoopInput,
) {
    // Regime (b): the Zipf clamp pins popularity_tick's peak at 0.999.
    let peak_note = if name == "popularity_tick" {
        " (pinned by the popularity clamp: not a quality guard)"
    } else {
        ""
    };
    let timed = timed_loop(
        k,
        seconds,
        out,
        |i| {
            let li = input(i);
            Simulation::new(li.inst, li.cfg)
        },
        Simulation::run,
        |e, w| {
            write!(w, "{e:?}").expect("hashing cannot fail");
            loop_checks(e)
        },
        |i, e| {
            let c = &e.counters;
            let note = format!(
                "instance {i}: steady peak {:.4}{peak_note} | p50 {:.2} p99 {:.2} ({} samples) | \
                 {} rebalances, {} evacuations, {} plans failed | traffic {:.1} | {} of {} \
                 queries degraded",
                e.steady_state_peak(),
                e.latency.p50,
                e.latency.p99,
                e.latency.count,
                c.rebalances_triggered,
                c.evacuations,
                c.plans_failed,
                c.migration_traffic,
                c.queries_degraded,
                c.queries_arrived,
            );
            ([e.steady_state_peak(), e.latency.p50, e.latency.p99], note)
        },
    );
    let outcomes: Vec<[f64; 3]> = timed.digests.iter().map(|d| d.0).collect();
    out.notes.extend(timed.digests.iter().map(|d| d.1.clone()));
    finish_e2e(out, &timed, &outcomes);
}

/// A snapshot on which evacuating `crashed` fails, for pricing the
/// evacuation attempts that fail in a run: the initial snapshot with every
/// other shard-hosting machine filled to 99.9% of its capacity (its shards'
/// demands scaled up), and the machines hosting nothing drained along with
/// the crashed ones, so no crashed shard fits anywhere. Returns the
/// snapshot and the machines to drain.
fn failing_evacuation(inst: &Instance, crashed: &[MachineId]) -> (Instance, Vec<MachineId>) {
    let mut snap = inst.clone();
    let asg = Assignment::from_initial(inst);
    let mut drain = crashed.to_vec();
    for mi in 0..inst.n_machines() {
        let m = MachineId::from(mi);
        let on = asg.shards_on(m);
        if on.is_empty() {
            drain.push(m);
        } else if !crashed.contains(&m) {
            let factor = 0.999 / asg.usage(m).max_ratio(inst.capacity(m));
            for s in on {
                snap.shards[s.idx()].demand = inst.demand(*s).scaled(factor);
            }
        }
    }
    (snap, drain)
}

/// Median wall time of `n` calls of `f`, for calls too short to time once.
fn median_call<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let (v, t) = timed_call(&mut f);
        times.push(t);
        last = Some(v);
    }
    (last.expect("n >= 1"), median(&times))
}

/// Times one closed-loop instance layer by layer. The runtime calls the
/// controller and the evacuation planner inline, so their time is taken
/// from outside:
/// * evacuation planning = the run's successful evacuations priced at one
///   `plan_evacuation` of the crashed machines on the initial snapshot,
///   plus its failed attempts priced at one on a snapshot where the
///   evacuation fails (`failing_evacuation`);
/// * tick loop = the same run with the controller off, minus its
///   evacuation attempts priced the same way;
/// * controller = the rest, split into layers in the proportions one
///   decision on the initial snapshot shows.
fn loop_split_one(li: LoopInput, pass: usize, problems: &mut Vec<String>) -> Split {
    let LoopInput {
        inst,
        cfg,
        crashed,
        generate_s,
    } = li;
    let mut s = Split::default();
    s.t.insert("generate", generate_s);

    let plain = Simulation::new(inst.clone(), cfg.clone());
    let traced = Simulation::new(inst.clone(), cfg.clone());
    let mut rec = Recorder::active();
    let ((run, run_s), (traced, traced_s)) =
        timed_pair(pass, || plain.run(), || traced.run_traced(&mut rec));
    s.t.insert("run", run_s);
    s.t.insert("traced", traced_s);
    problems.extend(loop_checks(&run));
    if traced.to_json() != run.to_json() {
        problems.push("traced run differs from the untraced run".into());
    }
    let evac_failures = rec
        .events()
        .iter()
        .filter(|e| e.layer == "runtime" && e.name == "evac_retry")
        .count() as f64;
    drop(rec);

    let mut off_cfg = cfg.clone();
    off_cfg.controller.policy = ControllerPolicy::Off;
    let sim = Simulation::new(inst.clone(), off_cfg);
    let (off, off_s) = timed_call(|| sim.run());

    let ctrl = &cfg.controller;
    let seed = cfg.seed;
    let (bw, overhead) = (cfg.copy_bandwidth, cfg.batch_overhead_ticks);
    // Whether these snapshot calls find a plan is part of what they cost,
    // not a correctness question.
    let decision_s = timed_call(|| plan_load_rebalance(ctrl, &inst, &[], seed, bw, overhead)).1;
    let evac_ok_s = median_call(5, || plan_evacuation(&inst, &crashed, seed, bw, overhead)).1;
    let (failing, drain) = failing_evacuation(&inst, &crashed);
    let (failed, evac_fail_s) =
        median_call(5, || plan_evacuation(&failing, &drain, seed, bw, overhead));
    if failed.is_ok_and(|pm| !pm.plan.batches.is_empty()) {
        problems.push("the evacuation meant to fail found a plan".into());
    }
    let evac = |ok: f64, failed: f64| ok * evac_ok_s + failed * evac_fail_s;

    let c = &run.counters;
    let decisions = c.rebalances_triggered as f64;
    // With the controller off every failed plan is an evacuation.
    let tick_loop = (off_s
        - evac(
            off.counters.evacuations as f64,
            off.counters.plans_failed as f64,
        ))
    .max(0.0);
    let evac_s = evac(c.evacuations as f64, evac_failures);
    let controller = (run_s - tick_loop - evac_s).max(0.0);
    s.t.insert("tick_loop", tick_loop);
    s.t.insert("evac", evac_s);
    s.t.insert("decision", controller);
    // `attributed` prices every decision at the initial snapshot's cost, so
    // `unattributed_frac` reports how well that cost explains the
    // controller time measured by difference.
    s.t.insert("attributed", tick_loop + decisions * decision_s + evac_s);
    let part = |call_s: f64| controller * (call_s / decision_s).min(1.0);

    match ctrl.policy {
        ControllerPolicy::Sra => {
            let scfg = SolveOptions::new()
                .iters(ctrl.sra_iters)
                .lambda(ctrl.sra_lambda)
                .seed(seed)
                .workers(1)
                .partitions(ctrl.sra_partitions)
                .build_for(&inst)
                .expect("controller solver config validates");
            let phases = solve_phases(&inst, &scfg, problems);
            for (key, v) in phases.t {
                s.t.insert(key, part(v));
            }
            for (key, v) in phases.n {
                let per_run = if key.starts_with("lns.") {
                    decisions * v
                } else {
                    v
                };
                s.n.insert(key, per_run);
            }
        }
        ControllerPolicy::Greedy => {
            let (greedy, greedy_s) = timed_call(|| GreedyRebalancer::default().rebalance(&inst));
            s.t.insert("greedy", part(greedy_s));
            if let Some(plan) = greedy.ok().and_then(|r| r.plan) {
                plan_counts(&plan, &mut s);
            }
        }
        ControllerPolicy::Off => {}
    }
    s.n.insert("runtime.decisions", decisions);
    s.n.insert(
        "runtime.evac_attempts",
        c.evacuations as f64 + evac_failures,
    );
    s.n.insert("runtime.plans_failed", c.plans_failed as f64);
    s.n.insert("runtime.rebalances_aborted", c.rebalances_aborted as f64);
    s.n.insert("runtime.batches", c.batches_executed as f64);
    s.n.insert("runtime.moves_committed", c.moves_committed as f64);
    s.n.insert("runtime.queries_sampled", c.queries_sampled as f64);
    s.n.insert("runtime.queries_arrived", c.queries_arrived as f64);
    s.n.insert("runtime.queries_degraded", c.queries_degraded as f64);
    s.n.insert("runtime.ticks", cfg.ticks as f64);
    s.n.insert("cluster.migration_traffic", c.migration_traffic);
    s
}

fn loop_split(k: usize, seconds: f64, out: &mut Outcome, input: impl Fn(usize) -> LoopInput) {
    let s = split_loop(k, seconds, out, |i, pass, problems| {
        loop_split_one(input(i), pass, problems)
    });
    finish_split(out, &s, k);
}

// ---- solve_web -------------------------------------------------------------

struct SolveInput {
    inst: Instance,
    cfg: SraConfig,
    generate_s: f64,
}

/// `solve_web`: one decomposed SRA solve on a web-scale correlated
/// hotspot fleet. Stringency 0.75: at 0.8–0.85 the decomposed result fails
/// to plan on a sixth to a half of the instances and the plan-every
/// fallback takes 5–10x the solve, which no run length makes steady.
fn solve_input(seed: u64, size: Size) -> SolveInput {
    let (machines, exchange, shards, iters, partitions) = match size {
        Size::Full => (200, 25, 2_000, 4_000, 8),
        Size::Tiny => (24, 3, 240, 200, 4),
    };
    let (inst, generate_s) = timed_call(|| {
        generate(&SynthConfig {
            n_machines: machines,
            n_exchange: exchange,
            n_shards: shards,
            dims: 3,
            stringency: 0.75,
            placement: Placement::Hotspot(0.4),
            seed,
            ..Default::default()
        })
        .expect("solve_web instance generates")
    });
    let cfg = SolveOptions::new()
        .iters(iters)
        .partitions(partitions)
        .seed(seed)
        .build_for(&inst)
        .expect("solve_web config validates");
    SolveInput {
        inst,
        cfg,
        generate_s,
    }
}

/// The independent output check: the schedule replays to the placement,
/// the placement is capacity-feasible with the vacancy quota, and the
/// returned machines are vacant and at least `k_return` of them.
fn solve_checks(inst: &Instance, r: &Result<SraResult, ClusterError>) -> Vec<String> {
    let r = match r {
        Ok(r) => r,
        Err(e) => return vec![format!("solve failed: {e}")],
    };
    let mut problems = Vec::new();
    if let Err(e) = verify_schedule(inst, &inst.initial, r.assignment.placement(), &r.plan) {
        problems.push(format!("schedule does not verify: {e}"));
    }
    if let Err(e) = r.assignment.check_target(inst) {
        problems.push(format!("target infeasible: {e}"));
    }
    if r.returned_machines.len() < inst.k_return {
        problems.push(format!(
            "{} machines returned, {} required",
            r.returned_machines.len(),
            inst.k_return
        ));
    }
    if let Some(m) = r
        .returned_machines
        .iter()
        .find(|&&m| !r.assignment.is_vacant(m))
    {
        problems.push(format!("returned machine {} is not vacant", m.idx()));
    }
    problems
}

fn solve_fingerprint(r: &Result<SraResult, ClusterError>, w: &mut HashWriter) {
    let written = match r {
        Ok(r) => write!(
            w,
            "{:?}|{:?}|{}|{:?}",
            r.assignment.placement(),
            r.plan.batches,
            r.objective_value.to_bits(),
            r.returned_machines
        ),
        Err(e) => write!(w, "error {e}"),
    };
    written.expect("hashing cannot fail");
}

/// The query latency users would see on the solved placement, in
/// multiples of the base service time: the router serving it with one
/// replica per shard (so no routing choice hides the placement) at a load
/// light enough that the service model's `1/(1-rho)` per machine, not
/// queueing, sets the latency. The router's percentiles are exact, so they
/// resolve differences the tick engine's 2% histogram buckets would not.
fn served_latency(inst: &Instance, placement: &[MachineId], seed: u64, size: Size) -> (f64, f64) {
    let served = Instance {
        initial: placement.to_vec(),
        ..inst.clone()
    };
    let cfg = RouterConfig {
        horizon_us: if size == Size::Full {
            1_000_000
        } else {
            100_000
        },
        qps: 32_000.0,
        replication: 1,
        fanout: 4,
        base_service_us: 400.0,
        policy: PolicyKind::Random,
        spike: None,
        sra: None,
        seed,
        ..Default::default()
    };
    let r = rex_router::run(&served, &cfg);
    (
        r.p50_us / cfg.base_service_us,
        r.p99_us / cfg.base_service_us,
    )
}

fn solve_e2e(seed: u64, size: Size, seconds: f64, out: &mut Outcome) {
    let k = instances("solve_web", size).0;
    let timed = timed_loop(
        k,
        seconds,
        out,
        |i| solve_input(instance_seed(seed, i), size),
        |si| {
            let r = solve(&si.inst, &si.cfg);
            (si, r)
        },
        |(si, r), w| {
            solve_fingerprint(r, w);
            solve_checks(&si.inst, r)
        },
        |_, (_, r)| {
            r.as_ref().ok().map(|r| {
                let note = format!(
                    "peak {:.4} -> {:.4} | {} moves in {} batches, traffic {:.1} | {} \
                     iterations, fallback {}",
                    r.initial_report.peak,
                    r.final_report.peak,
                    r.migration.total_moves,
                    r.migration.batches,
                    r.migration.traffic,
                    r.iterations,
                    r.fallback_used,
                );
                (r.assignment.placement().to_vec(), r.final_report.peak, note)
            })
        },
    );
    // The solved placements are served after the timed loop, so the
    // router's memory stays out of `max_rss_mb`; the instances are
    // regenerated from their seeds rather than kept.
    let mut outcomes = Vec::new();
    for (i, d) in timed.digests.iter().enumerate() {
        let Some((placement, peak, note)) = d else {
            continue;
        };
        let si = solve_input(instance_seed(seed, i), size);
        let (l50, l99) = served_latency(&si.inst, placement, si.cfg.seed, size);
        outcomes.push([*peak, l50, l99]);
        out.notes.push(format!(
            "instance {i}: {note} | served p50 {l50:.2} p99 {l99:.2}"
        ));
    }
    finish_e2e(out, &timed, &outcomes);
}

/// `solve`'s own phases, timed one by one on the same inputs: the search
/// (`run_search`), the migration planner and the schedule verifier.
fn solve_phases(inst: &Instance, cfg: &SraConfig, problems: &mut Vec<String>) -> Split {
    let mut s = Split::default();
    let mut problem = SraProblem::new(inst, cfg.objective);
    problem.planner = cfg.planner;
    let (searched, search_s) =
        timed_call(|| run_search(&problem, cfg, cfg.seed, &mut Recorder::noop()));
    s.t.insert("search", search_s);
    let (best, iterations, stats, _) = match searched {
        Ok(v) => v,
        Err(e) => {
            problems.push(format!("search failed: {e}"));
            return s;
        }
    };
    s.n.insert("lns.iterations", iterations as f64);
    if let Some(st) = stats {
        s.n.insert("lns.accepted", st.accepted as f64);
        s.n.insert("lns.infeasible", st.infeasible as f64);
        s.n.insert("lns.repair_failures", st.repair_failures as f64);
        s.n.insert("lns.new_bests", st.new_bests as f64);
    }
    let (planned, plan_s) =
        timed_call(|| plan_migration(inst, &inst.initial, best.placement(), &cfg.planner));
    s.t.insert("plan", plan_s);
    match planned {
        Ok(plan) => {
            let (verified, verify_s) =
                timed_call(|| verify_schedule(inst, &inst.initial, best.placement(), &plan));
            s.t.insert("verify", verify_s);
            if let Err(e) = verified {
                problems.push(format!("planned schedule does not verify: {e}"));
            }
            plan_counts(&plan, &mut s);
        }
        // A deadlock sends `solve` into its plan-every fallback search.
        Err(ClusterError::PlanningDeadlock { .. }) => {
            s.n.insert("core.fallbacks", 1.0);
        }
        Err(e) => problems.push(format!("planning failed: {e}")),
    }
    s
}

fn plan_counts(plan: &MigrationPlan, s: &mut Split) {
    s.n.insert("cluster.plan_moves", plan.n_moves() as f64);
    s.n.insert("cluster.plan_batches", plan.n_batches() as f64);
    s.n.insert("cluster.extra_hops", plan.extra_hops() as f64);
}

fn solve_split(seed: u64, size: Size, seconds: f64, out: &mut Outcome) {
    let k = instances("solve_web", size).1;
    let s = split_loop(k, seconds, out, |i, pass, problems| {
        let si = solve_input(instance_seed(seed, i), size);
        let mut s = Split::default();
        s.t.insert("generate", si.generate_s);
        let mut rec = Recorder::active();
        let ((r, run_s), (traced, traced_s)) = timed_pair(
            pass,
            || solve(&si.inst, &si.cfg),
            || solve_traced(&si.inst, &si.cfg, &[], &mut rec),
        );
        s.t.insert("run", run_s);
        s.t.insert("traced", traced_s);
        problems.extend(solve_checks(&si.inst, &r));
        if hash_of(|w| solve_fingerprint(&traced, w)) != hash_of(|w| solve_fingerprint(&r, w)) {
            problems.push("traced solve differs from the untraced solve".into());
        }
        let phases = solve_phases(&si.inst, &si.cfg, problems);
        s.t.insert("attributed", phases.t.values().sum());
        s.t.extend(phases.t);
        s.n.extend(phases.n);
        // The decomposed path runs its partition searches untraced (so
        // traces are thread-count independent); the acceptance counts come
        // from the traced global passes.
        for key in [
            "lns.accepted",
            "lns.infeasible",
            "lns.repair_failures",
            "lns.new_bests",
        ] {
            s.n.insert(key, rec.counter(key) as f64);
        }
        let traced_iters = rec.counter("lns.iterations") as f64;
        s.n.insert("lns.traced_iterations", traced_iters);
        if let Ok(r) = &r {
            s.n.insert("cluster.migration_traffic", r.migration.traffic);
        }
        s
    });
    finish_split(out, &s, k);
}

// ---- route_flash -----------------------------------------------------------

struct RouteInput {
    inst: Instance,
    cfg: RouterConfig,
    generate_s: f64,
}

/// `route_flash`: the query-level router with Prequal probing under
/// open-loop Poisson arrivals and a 3x flash crowd on 5% of the shards
/// for a fixed 2 s window; no SRA coupling.
fn route_input(seed: u64, size: Size) -> RouteInput {
    let (machines, shards, horizon_s) = match size {
        Size::Full => (128, 3_840, 5.0),
        Size::Tiny => (16, 160, 0.2),
    };
    let (inst, generate_s) = timed_call(|| {
        generate(&SynthConfig {
            n_machines: machines,
            n_exchange: 0,
            n_shards: shards,
            dims: 1,
            stringency: 0.55,
            placement: Placement::Hotspot(0.3),
            seed,
            ..Default::default()
        })
        .expect("route_flash instance generates")
    });
    let horizon_us = (horizon_s * 1e6) as u64;
    let flash_us = if size == Size::Full {
        2_000_000
    } else {
        horizon_us / 3
    };
    let cfg = RouterConfig {
        horizon_us,
        qps: 120_000.0,
        replication: 3,
        fanout: 4,
        base_service_us: 400.0,
        policy: PolicyKind::Prequal,
        d_choices: 2,
        spike: Some(FlashCrowd {
            at_us: (horizon_us - flash_us) / 2,
            duration_us: flash_us,
            factor: 3.0,
            shard_fraction: 0.05,
        }),
        sra: None,
        seed,
        ..Default::default()
    };
    RouteInput {
        inst,
        cfg,
        generate_s,
    }
}

fn route_checks(cfg: &RouterConfig, r: &RouterReport) -> Vec<String> {
    let mut problems = Vec::new();
    if r.queries == 0 {
        problems.push("no queries admitted".into());
    }
    if r.subrequests != r.queries * cfg.fanout as u64 {
        problems.push(format!(
            "{} subrequests for {} queries at fanout {}",
            r.subrequests, r.queries, cfg.fanout
        ));
    }
    if r.sampled != r.queries {
        problems.push(format!(
            "{} latency samples for {} queries",
            r.sampled, r.queries
        ));
    }
    if r.pool_hits + r.pool_misses != r.subrequests {
        problems.push(format!(
            "pool hits {} + misses {} != {} subrequests",
            r.pool_hits, r.pool_misses, r.subrequests
        ));
    }
    problems
}

fn route_e2e(seed: u64, size: Size, seconds: f64, out: &mut Outcome) {
    let k = instances("route_flash", size).0;
    let timed = timed_loop(
        k,
        seconds,
        out,
        |i| route_input(instance_seed(seed, i), size),
        |ri| {
            let r = rex_router::run(&ri.inst, &ri.cfg);
            (ri, r)
        },
        |(ri, r), w| {
            write!(w, "{r:?}").expect("hashing cannot fail");
            route_checks(&ri.cfg, r)
        },
        |i, (ri, r)| {
            // The router serves the generated placement unchanged, so this
            // peak is fixed by the seed: an input, not a quality guard.
            let placement_peak =
                BalanceReport::compute(&ri.inst, &Assignment::from_initial(&ri.inst)).peak;
            let svc = ri.cfg.base_service_us;
            let note =
                format!(
                "instance {i}: {} queries, {} events, {} samples | p50 {:.0} us p99 {:.0} us | \
                 peak in flight {} | placement peak {:.4} (fixed input: not a quality guard)",
                r.queries, r.events, r.sampled, r.p50_us, r.p99_us, r.peak_in_flight, placement_peak
            );
            ([placement_peak, r.p50_us / svc, r.p99_us / svc], note)
        },
    );
    let outcomes: Vec<[f64; 3]> = timed.digests.iter().map(|d| d.0).collect();
    out.notes.extend(timed.digests.iter().map(|d| d.1.clone()));
    finish_e2e(out, &timed, &outcomes);
}

fn route_split(seed: u64, size: Size, seconds: f64, out: &mut Outcome) {
    let k = instances("route_flash", size).1;
    let s = split_loop(k, seconds, out, |i, pass, problems| {
        let ri = route_input(instance_seed(seed, i), size);
        let mut s = Split::default();
        s.t.insert("generate", ri.generate_s);
        let mut rec = Recorder::active();
        let ((r, run_s), (traced, traced_s)) = timed_pair(
            pass,
            || rex_router::run(&ri.inst, &ri.cfg),
            || rex_router::run_traced(&ri.inst, &ri.cfg, &mut rec),
        );
        s.t.insert("run", run_s);
        s.t.insert("traced", traced_s);
        problems.extend(route_checks(&ri.cfg, &r));
        if traced.to_json() != r.to_json() {
            problems.push("traced route differs from the untraced route".into());
        }
        let (router, build_s) = timed_call(|| Router::new(&ri.inst, &ri.cfg));
        let (again, events_s) = timed_call(|| router.run());
        s.t.insert("router_build", build_s);
        s.t.insert("router_events", events_s);
        s.t.insert("attributed", build_s + events_s);
        if again.to_json() != r.to_json() {
            problems.push("Router::new + run differs from rex_router::run".into());
        }
        s.n.insert("router.events", r.events as f64);
        s.n.insert("router.peak_in_flight", r.peak_in_flight as f64);
        s.n.insert("router.subrequests", r.subrequests as f64);
        s.n.insert("router.pool_hits", r.pool_hits as f64);
        s.n.insert("router.probes_sent", r.probes_sent as f64);
        s.n.insert(
            "router.probes_wasted",
            (r.probes_expired + r.probes_exhausted) as f64,
        );
        s
    });
    finish_split(out, &s, k);
}

// ---- reporting ---------------------------------------------------------------

/// Reports the end-to-end metrics, in `BENCHMARK.json` order: the median
/// over instances of the call times and the interquartile mean over
/// instances of each outcome `[peak, query_p50, query_p99]`, so one
/// instance taking a rare slow path or hitting a backlog moves neither.
fn finish_e2e<D>(out: &mut Outcome, timed: &Timed<D>, outcomes: &[[f64; 3]]) {
    let per_instance: Vec<f64> = timed.call_s.iter().map(|c| median(c)).collect();
    let run_s = median(&per_instance);
    let setup = median(&timed.setup_s);
    let times: Vec<String> = per_instance.iter().map(|t| format!("{t:.3}")).collect();
    out.notes.push(format!(
        "{} timed calls | per-instance call s: {} | run_s {run_s:.4} | setup_s {setup:.5} (median of {})",
        timed.calls(),
        times.join(" "),
        timed.setup_s.len()
    ));
    let outcome = |j: usize| mid_mean(&outcomes.iter().map(|o| o[j]).collect::<Vec<_>>());
    out.metrics = vec![
        metric("setup_s", setup, "s"),
        metric("run_s", run_s, "s"),
        metric("max_rss_mb", timed.rss_mb, "MB"),
        metric("peak", outcome(0), "ratio"),
        metric("query_p50", outcome(1), "x_service"),
        metric("query_p99", outcome(2), "x_service"),
    ];
}

/// Reports the per-layer metrics, in `BENCHMARK.json` order, and prints the
/// layer table.
fn finish_split(out: &mut Outcome, s: &Split, k: usize) {
    let t = |key: &str| s.t.get(key).copied().unwrap_or(0.0);
    let n = |key: &str| s.n.get(key).copied().unwrap_or(0.0);
    let run = t("run");
    let share = |key: &str| ratio(t(key), run);
    let iters = n("lns.iterations");
    // On solve_web the acceptance counts cover only the traced passes.
    let traced_iters = s.n.get("lns.traced_iterations").copied().unwrap_or(iters);
    let metrics = vec![
        metric("workload.generate_s", t("generate") / k as f64, "s"),
        metric("obs.trace_overhead", ratio(t("traced"), run) - 1.0, "ratio"),
        metric(
            "unattributed_frac",
            ratio(run - t("attributed"), run),
            "ratio",
        ),
        metric("core.search_share", share("search"), "ratio"),
        metric("cluster.plan_share", share("plan"), "ratio"),
        metric("cluster.verify_share", share("verify"), "ratio"),
        metric("runtime.tick_loop_share", share("tick_loop"), "ratio"),
        metric("runtime.decision_share", share("decision"), "ratio"),
        metric("runtime.evac_share", share("evac"), "ratio"),
        metric("baselines.greedy_share", share("greedy"), "ratio"),
        metric("router.share", ratio(t("router_events"), run), "ratio"),
        metric("lns.iterations", iters, "count"),
        metric("lns.iters_per_s", ratio(iters, t("search")), "1/s"),
        metric(
            "lns.accept_ratio",
            ratio(n("lns.accepted"), traced_iters),
            "ratio",
        ),
        metric(
            "lns.infeasible_ratio",
            ratio(n("lns.infeasible"), traced_iters),
            "ratio",
        ),
        metric(
            "lns.repair_fail_ratio",
            ratio(n("lns.repair_failures"), traced_iters),
            "ratio",
        ),
        metric("lns.new_bests", n("lns.new_bests"), "count"),
        metric("core.fallbacks", n("core.fallbacks"), "count"),
        metric("cluster.plan_moves", n("cluster.plan_moves"), "count"),
        metric("cluster.plan_batches", n("cluster.plan_batches"), "count"),
        metric(
            "cluster.extra_hop_ratio",
            ratio(n("cluster.extra_hops"), n("cluster.plan_moves")),
            "ratio",
        ),
        metric(
            "cluster.migration_traffic",
            n("cluster.migration_traffic"),
            "move_cost",
        ),
        metric(
            "runtime.ticks_per_s",
            ratio(n("runtime.ticks"), t("tick_loop")),
            "1/s",
        ),
        metric(
            "runtime.queries_sampled",
            n("runtime.queries_sampled"),
            "count",
        ),
        metric("runtime.decisions", n("runtime.decisions"), "count"),
        metric("runtime.evac_attempts", n("runtime.evac_attempts"), "count"),
        metric("runtime.plans_failed", n("runtime.plans_failed"), "count"),
        metric(
            "runtime.rebalances_aborted",
            n("runtime.rebalances_aborted"),
            "count",
        ),
        metric("runtime.batches", n("runtime.batches"), "count"),
        metric(
            "runtime.moves_committed",
            n("runtime.moves_committed"),
            "count",
        ),
        metric(
            "runtime.degraded_frac",
            ratio(n("runtime.queries_degraded"), n("runtime.queries_arrived")),
            "ratio",
        ),
        metric("router.events", n("router.events"), "count"),
        metric(
            "router.events_per_s",
            ratio(n("router.events"), t("router_events")),
            "1/s",
        ),
        metric("router.peak_in_flight", n("router.peak_in_flight"), "count"),
        metric(
            "router.pool_hit_ratio",
            ratio(n("router.pool_hits"), n("router.subrequests")),
            "ratio",
        ),
        metric(
            "router.probe_waste_ratio",
            ratio(n("router.probes_wasted"), n("router.probes_sent")),
            "ratio",
        ),
    ];
    out.notes.push(format!(
        "layer split over {k} instances (seconds summed, share of run_s):"
    ));
    out.notes
        .push(format!("  {:<26} {:>10.4} s", "run (untraced)", run));
    for (label, key) in [
        ("traced run", "traced"),
        ("tick loop (ctrl off)", "tick_loop"),
        ("controller decisions", "decision"),
        ("  core search", "search"),
        ("  cluster plan", "plan"),
        ("  cluster verify", "verify"),
        ("  baselines greedy", "greedy"),
        ("evacuation planning", "evac"),
        ("router build", "router_build"),
        ("router event loop", "router_events"),
    ] {
        if s.t.contains_key(key) {
            out.notes.push(format!(
                "  {label:<26} {:>10.4} s  {:>6.1}%",
                t(key),
                100.0 * share(key)
            ));
        }
    }
    out.metrics = metrics;
}
