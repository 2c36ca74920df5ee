//! Golden pins of the closed-loop runtime.
//!
//! Each row fingerprints one `rex simulate` configuration — a 64-bit
//! FNV-1a hash of the metrics-export JSON and of the observability trace
//! JSONL, plus, for the workload files, of the recorded workload trace —
//! rebuilt here through the library exactly as the CLI builds it, so the
//! hashes equal those of the files the CLI writes (`--out`, `--trace`,
//! `--record-trace`) for the same flags. The configurations cover drift
//! with the SRA controller, the hot-shard plane's split/merge under a flash
//! crowd, the heterogeneous fleet's sampled fanout under the diurnal
//! envelope and the popularity walk, and a rack crash with its
//! evacuations. Refactors of the tick loop must keep
//! these bit-identical; any change to an RNG draw, an event's order, a
//! derived load value or a float's summation order shows up here.

use rex_cluster::{Instance, WorkloadSpec};
use rex_obs::Recorder;
use rex_runtime::{ControllerPolicy, DriftSpec, FaultSpec, RuntimeConfig, Simulation};
use rex_workload::generate_workload;
use rex_workload::synthetic::{generate, Placement, SynthConfig};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `(export hash, trace hash)` of a traced run.
fn run_hashes(sim: Simulation) -> (u64, u64) {
    let mut rec = Recorder::active();
    let export = sim.run_traced(&mut rec);
    (
        fnv1a(export.to_json().as_bytes()),
        fnv1a(rec.to_jsonl().as_bytes()),
    )
}

/// `rex simulate`'s synthesized fleet for `--machines/--exchange/--shards`.
fn synth_fleet(machines: usize, exchange: usize, shards: usize, seed: u64) -> Instance {
    generate(&SynthConfig {
        n_machines: machines,
        n_exchange: exchange,
        n_shards: shards,
        placement: Placement::Hotspot(0.4),
        seed,
        ..Default::default()
    })
    .expect("generate")
}

#[test]
fn default_simulate_matches_its_golden_hashes() {
    // rex simulate --ticks 2000 --seed 7
    let inst = synth_fleet(16, 2, 160, 7);
    let cfg = RuntimeConfig {
        ticks: 2_000,
        seed: 7,
        drift: Some(DriftSpec {
            every_ticks: 400,
            sigma: 0.15,
            target_utilization: inst.stringency().clamp(0.3, 0.9),
        }),
        ..Default::default()
    };
    assert_eq!(
        run_hashes(Simulation::new(inst, cfg)),
        (0x4841_0718_c217_709d, 0x69b7_83de_8ffc_0746),
        "default simulate"
    );
}

#[test]
fn hotshard_simulate_matches_its_golden_hashes() {
    // rex simulate --machines 8 --shards 48 --exchange 1 --ticks 800
    //   --seed 5 --controller off --hotshard --split-threshold 0.4
    //   --hotshard-poll 20 --spike-at 100 --spike-duration 300
    //   --spike-factor 2.5 --spike-fraction 0.02 --no-drift
    let mut cfg = RuntimeConfig {
        ticks: 800,
        seed: 5,
        faults: vec![FaultSpec::Spike {
            at: 100,
            duration: 300,
            factor: 2.5,
            shard_fraction: 0.02,
        }],
        ..Default::default()
    };
    cfg.controller.policy = ControllerPolicy::Off;
    cfg.hotshard.enabled = true;
    cfg.hotshard.split_fraction = 0.4;
    cfg.hotshard.merge_fraction = 0.2;
    cfg.hotshard.poll_interval = 20;
    cfg.hotshard.operator_expiry_ticks = 400;
    let sim = Simulation::new(synth_fleet(8, 1, 48, 5), cfg);
    assert_eq!(
        run_hashes(sim),
        (0x356c_0c38_5658_1cd9, 0x6720_a953_f590_b2dc),
        "hot-shard simulate"
    );
}

/// `rex simulate --workload FILE --record-trace T --trace J`: `(export,
/// obs trace, workload trace)` hashes.
fn workload_hashes(file: &str) -> (u64, u64, u64) {
    let path = format!("{}/../../examples/{file}", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).expect("read workload file");
    let w: WorkloadSpec = serde_json::from_str(&json).expect("parse workload file");
    w.validate().expect("workload validates");
    let inst = generate_workload(
        &w,
        &SynthConfig {
            n_machines: 16,
            n_exchange: 2,
            n_shards: 160,
            placement: Placement::Hotspot(0.4),
            seed: w.scenario.seed,
            ..Default::default()
        },
    )
    .expect("generate workload");
    let mut rec = Recorder::active();
    let (export, lines) = Simulation::from_workload(inst.clone(), &w).run_recorded(&mut rec);
    (
        fnv1a(export.to_json().as_bytes()),
        fnv1a(rec.to_jsonl().as_bytes()),
        fnv1a(rex_runtime::trace::write_jsonl(&w, &inst, &lines).as_bytes()),
    )
}

#[test]
fn heterogeneous_workload_matches_its_golden_hashes() {
    assert_eq!(
        workload_hashes("workload_heterogeneous.json"),
        (
            0x7f27_efea_0766_95b2,
            0xc5a8_40ee_df0b_0d8e,
            0xe459_3cc0_3506_38c0
        ),
        "workload_heterogeneous.json"
    );
}

#[test]
fn rackfault_workload_matches_its_golden_hashes() {
    assert_eq!(
        workload_hashes("workload_rackfault.json"),
        (
            0xc1cf_7b40_9a13_c0bc,
            0xed29_cd92_0231_a1d3,
            0x5a67_b396_f212_550a
        ),
        "workload_rackfault.json"
    );
}
