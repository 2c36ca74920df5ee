//! Golden pins of the solver paths.
//!
//! Each row fingerprints one solve — an FNV-1a hash of the final
//! placement, the objective's bits, and the iteration count — on a seeded
//! synthetic instance. The decomposed rows run at tree depth 1 (one split
//! into leaves) and depth 2; the serial rows run the monolithic engine the
//! closed-loop controller uses, once plain and once evacuating a drained
//! machine. Refactors of the solver must keep these bit-identical; any
//! change to seeds, job numbering, budgets, operator decisions or the
//! search itself shows up here as a mismatch.

use rex_cluster::{MachineId, Objective, ObjectiveKind};
use rex_core::{solve, solve_with_drain, SraConfig, SraResult};
use rex_workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};

/// `(machines, shards, instance seed, depth, placement hash, objective
/// bits, iterations)`.
const PINS: [(usize, usize, u64, usize, u64, u64, u64); 4] = [
    (
        40,
        320,
        3,
        1,
        0x4cdd_e7e6_9b03_ee33,
        0x3fea_0538_9347_e73c,
        3800,
    ),
    (
        40,
        320,
        3,
        2,
        0x367d_5b4a_87dc_48ab,
        0x3fe9_e98d_d02d_6b3d,
        11600,
    ),
    (
        64,
        640,
        17,
        1,
        0x045a_262e_79ca_2080,
        0x3fe9_e0f1_c720_24d2,
        3800,
    ),
    (
        64,
        640,
        17,
        2,
        0x103f_e1ed_dbd4_4967,
        0x3fe9_e03d_deec_b07e,
        11600,
    ),
];

fn instance(machines: usize, shards: usize, seed: u64) -> rex_cluster::Instance {
    generate(&SynthConfig {
        n_machines: machines,
        n_exchange: (machines / 8).max(1),
        n_shards: shards,
        stringency: 0.8,
        family: DemandFamily::Correlated,
        placement: Placement::Hotspot(0.4),
        seed,
        ..Default::default()
    })
    .expect("generate")
}

/// 64-bit FNV-1a over the placement's machine ids (little-endian `u32`s).
fn placement_hash(res: &SraResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in res.assignment.placement() {
        for b in (m.idx() as u32).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn decomposed_solves_match_their_golden_fingerprints() {
    for (machines, shards, inst_seed, depth, hash, objective, iterations) in PINS {
        let inst = instance(machines, shards, inst_seed);
        let cfg = SraConfig {
            iters: 1_200,
            partitions: 3,
            depth,
            seed: 7,
            objective: Objective::pure(ObjectiveKind::PeakLoad),
            ..Default::default()
        };
        let res = solve(&inst, &cfg).expect("solve");
        let label = format!("{machines}x{shards} seed {inst_seed} depth {depth}");
        assert_eq!(placement_hash(&res), hash, "{label}: placement differs");
        assert_eq!(
            res.objective_value.to_bits(),
            objective,
            "{label}: objective differs"
        );
        assert_eq!(res.iterations, iterations, "{label}: iterations differ");
    }
}

/// `(machines, exchange, shards, stringency, instance seed, drained
/// machine, placement hash, objective bits, iterations)` for serial
/// (`partitions: 0`) solves at the controller's settings: λ 0.25, 3 000
/// iterations, destroy cap 64.
#[allow(clippy::type_complexity)]
const SERIAL_PINS: [(usize, usize, usize, f64, u64, Option<usize>, u64, u64, u64); 2] = [
    // drift_sra's fleet shape: the closed loop's inline rebalance.
    (
        40,
        5,
        400,
        0.75,
        1,
        None,
        0xe309_4f4d_57ee_bccc,
        0x3fed_c1f6_6cc8_80e7,
        3000,
    ),
    // The evacuation path: one machine drained on a slack fleet.
    (
        24,
        3,
        200,
        0.5,
        5,
        Some(3),
        0x34da_3e1e_6b27_9858,
        0x3fe6_c852_8228_684c,
        3000,
    ),
];

#[test]
fn serial_solves_match_their_golden_fingerprints() {
    for (machines, exchange, shards, stringency, inst_seed, drain, hash, objective, iterations) in
        SERIAL_PINS
    {
        let inst = generate(&SynthConfig {
            n_machines: machines,
            n_exchange: exchange,
            n_shards: shards,
            stringency,
            placement: Placement::Hotspot(0.4),
            seed: inst_seed,
            ..Default::default()
        })
        .expect("generate");
        let cfg = SraConfig {
            iters: 3_000,
            partitions: 0,
            seed: 7,
            objective: Objective {
                kind: ObjectiveKind::PeakLoad,
                lambda: 0.25,
            },
            ..Default::default()
        };
        let drained: Vec<MachineId> = drain.map(MachineId::from).into_iter().collect();
        for &m in &drained {
            assert!(
                inst.initial.contains(&m),
                "drained {m} starts empty: the pin would skip the evacuation"
            );
        }
        let res = solve_with_drain(&inst, &cfg, &drained).expect("solve");
        for &m in &drained {
            assert!(
                res.assignment.is_vacant(m),
                "drained {m} still hosts shards"
            );
        }
        let label = format!("{machines}+{exchange}x{shards} seed {inst_seed} drain {drain:?}");
        let got = (
            placement_hash(&res),
            res.objective_value.to_bits(),
            res.iterations,
        );
        assert_eq!(
            got,
            (hash, objective, iterations),
            "{label}: fingerprint differs (got {:#x}, {:#x}, {})",
            got.0,
            got.1,
            got.2
        );
    }
}
