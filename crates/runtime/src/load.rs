//! The tick loop's derived load state (DESIGN.md §17): the sampled-fanout
//! arrival table, per-machine flash-crowd CPU and effective ρ, and the
//! serving set, cached by [`LoadTables`] until an event changes an input.

use crate::config::FaultSpec;
use crate::server::effective_rho;
use rex_cluster::{Assignment, Instance, MachineId, ResourceVec, ShardId};

/// An event that changes an input of [`LoadTables`] (DESIGN.md §17).
#[derive(Clone, Copy, Debug)]
pub(crate) enum LoadEvent {
    /// A drift epoch replaced the instance (new demands).
    Drift,
    /// A popularity epoch replaced the instance (new demands).
    Popularity,
    /// A flash crowd started (new hot set and factor).
    SpikeStart,
    /// A flash crowd ended.
    SpikeEnd,
    /// A hot shard split (new shard, new hot-set member, rebuilt usage).
    Split,
    /// Two sibling shards merged (one shard fewer, renumbered ids).
    Merge,
    /// A batch's copies went on the wire: its footprint is now in
    /// `transient` (the plan's first batch at `PlanStart`, each later one
    /// when the previous batch completes).
    BatchStart,
    /// A batch committed its moves (new placement) and its copies left
    /// the wire.
    BatchComplete,
    /// The diurnal multiplier changed value (an hour boundary); only ρ
    /// reads it.
    Diurnal,
    /// A machine crashed; only the degraded flag reads failures.
    Crash,
    /// A machine recovered.
    Recover,
}

impl LoadEvent {
    #[cfg(all(test, debug_assertions))]
    pub(crate) const ALL: [LoadEvent; 11] = [
        LoadEvent::Drift,
        LoadEvent::Popularity,
        LoadEvent::SpikeStart,
        LoadEvent::SpikeEnd,
        LoadEvent::Split,
        LoadEvent::Merge,
        LoadEvent::BatchStart,
        LoadEvent::BatchComplete,
        LoadEvent::Diurnal,
        LoadEvent::Crash,
        LoadEvent::Recover,
    ];

    #[cfg(debug_assertions)]
    pub(crate) fn bit(self) -> u16 {
        1 << self as u16
    }
}

/// The inputs every [`LoadTables`] value is a function of, borrowed from
/// the [`Simulation`](crate::Simulation) for one read.
pub(crate) struct LoadInputs<'a> {
    pub(crate) inst: &'a Instance,
    pub(crate) asg: &'a Assignment,
    pub(crate) spikes: &'a [Option<Vec<ShardId>>],
    pub(crate) faults: &'a [FaultSpec],
    pub(crate) transient: &'a [ResourceVec],
    pub(crate) failed: &'a [bool],
}

/// The tick loop's derived load state: the sampled-fanout arrival table,
/// the per-machine flash-crowd CPU and effective ρ, and which machines
/// serve queries (with the degraded flag: a failed machine still serves).
///
/// Every value is a pure function of [`LoadInputs`] (and, for ρ, of the
/// diurnal multiplier), and those change only at a handful of events, not
/// per tick. So each value is rebuilt on the first read after an
/// [`invalidate`](LoadTables::invalidate), by the same functions in the
/// same order as a from-scratch rebuild, and served from the cache until
/// the next one. ρ is keyed by the multiplier's bits, so an hour boundary
/// rebuilds ρ alone.
///
/// In debug builds every read also rebuilds from scratch and asserts bit
/// equality with the cache, so a missing `invalidate` fails any test that
/// reads after the event it missed.
pub(crate) struct LoadTables {
    /// Live/base arrival-weight ratio; `None` while the arrival table is
    /// stale.
    arrival_ratio: Option<f64>,
    /// Per-shard arrival weight: CPU demand times active spike factors.
    shard_weight: Vec<f64>,
    /// Cumulative table over `shard_weight`.
    cum_weight: Vec<f64>,
    /// The table's last entry.
    total_weight: f64,
    /// `spike_cpu` is current.
    spike_fresh: bool,
    /// Extra CPU from active flash crowds, per machine.
    spike_cpu: Vec<f64>,
    /// Bits of the diurnal multiplier `rho` was built at; `None` while
    /// stale.
    rho_mult: Option<u64>,
    /// Effective per-machine utilization ([`effective_rho`]).
    rho: Vec<f64>,
    /// Whether a failed machine still serves queries; `None` while
    /// `serving` and the flag are stale.
    degraded: Option<bool>,
    /// Per machine: hosts at least one shard.
    serving: Vec<bool>,
    /// Events invalidated since the last cross-checked read.
    #[cfg(debug_assertions)]
    pending: u16,
    /// Events followed by at least one cross-checked read.
    #[cfg(debug_assertions)]
    checked: u16,
}

impl LoadTables {
    pub(crate) fn new(n_machines: usize) -> Self {
        Self {
            arrival_ratio: None,
            shard_weight: Vec::new(),
            cum_weight: Vec::new(),
            total_weight: 0.0,
            spike_fresh: false,
            spike_cpu: vec![0.0; n_machines],
            rho_mult: None,
            rho: Vec::with_capacity(n_machines),
            degraded: None,
            serving: vec![false; n_machines],
            #[cfg(debug_assertions)]
            pending: 0,
            #[cfg(debug_assertions)]
            checked: 0,
        }
    }

    /// Marks the values `event` changes stale. The one entry point: every
    /// mutation of a [`LoadInputs`] field, and every new diurnal
    /// multiplier, passes through here.
    pub(crate) fn invalidate(&mut self, event: LoadEvent) {
        match event {
            LoadEvent::Diurnal => self.rho_mult = None,
            LoadEvent::Crash | LoadEvent::Recover => self.degraded = None,
            _ => {
                self.arrival_ratio = None;
                self.spike_fresh = false;
                self.rho_mult = None;
                self.degraded = None;
            }
        }
        #[cfg(debug_assertions)]
        {
            self.pending |= event.bit();
        }
    }

    /// Brings the sampled-fanout arrival table up to date; returns the
    /// live/base total-weight ratio.
    pub(crate) fn arrivals(&mut self, inp: &LoadInputs) -> f64 {
        let ratio = match self.arrival_ratio {
            Some(r) => r,
            None => {
                let (total, r) =
                    build_arrival_table(inp, &mut self.shard_weight, &mut self.cum_weight);
                self.total_weight = total;
                self.arrival_ratio = Some(r);
                r
            }
        };
        #[cfg(debug_assertions)]
        {
            let (mut w, mut c) = (Vec::new(), Vec::new());
            let (total, r) = build_arrival_table(inp, &mut w, &mut c);
            assert!(
                same_bits(&w, &self.shard_weight)
                    && same_bits(&c, &self.cum_weight)
                    && total.to_bits() == self.total_weight.to_bits()
                    && r.to_bits() == ratio.to_bits(),
                "stale arrival table: an input changed without LoadTables::invalidate"
            );
            self.note_cross_check();
        }
        ratio
    }

    /// Brings `spike_cpu` and `rho` (at diurnal multiplier `mult`) up to
    /// date.
    pub(crate) fn refresh_rho(&mut self, inp: &LoadInputs, mult: f64) {
        if self.rho_mult.is_some_and(|bits| bits != mult.to_bits()) {
            self.invalidate(LoadEvent::Diurnal);
        }
        if !self.spike_fresh {
            build_spike_cpu(inp, &mut self.spike_cpu);
            self.spike_fresh = true;
        }
        if self.rho_mult.is_none() {
            effective_rho(
                inp.inst,
                inp.asg,
                &self.spike_cpu,
                inp.transient,
                mult,
                &mut self.rho,
            );
            self.rho_mult = Some(mult.to_bits());
        }
        #[cfg(debug_assertions)]
        {
            let mut spike_cpu = vec![0.0; self.spike_cpu.len()];
            build_spike_cpu(inp, &mut spike_cpu);
            let mut rho = Vec::new();
            effective_rho(inp.inst, inp.asg, &spike_cpu, inp.transient, mult, &mut rho);
            assert!(
                same_bits(&spike_cpu, &self.spike_cpu) && same_bits(&rho, &self.rho),
                "stale per-machine load: an input changed without LoadTables::invalidate"
            );
            self.note_cross_check();
        }
    }

    /// Brings `serving` up to date; returns whether a failed machine still
    /// serves (its queries are degraded).
    pub(crate) fn degraded(&mut self, inp: &LoadInputs) -> bool {
        let degraded = match self.degraded {
            Some(d) => d,
            None => {
                let d = build_serving(inp, &mut self.serving);
                self.degraded = Some(d);
                d
            }
        };
        #[cfg(debug_assertions)]
        {
            let mut serving = vec![false; self.serving.len()];
            assert!(
                build_serving(inp, &mut serving) == degraded && serving == self.serving,
                "stale serving set: an input changed without LoadTables::invalidate"
            );
            self.note_cross_check();
        }
        degraded
    }

    /// The cumulative arrival-weight table and its total, as of the last
    /// [`arrivals`](LoadTables::arrivals).
    pub(crate) fn arrival_table(&self) -> (&[f64], f64) {
        (&self.cum_weight, self.total_weight)
    }

    /// Per-machine flash-crowd CPU, as of the last
    /// [`refresh_rho`](LoadTables::refresh_rho).
    pub(crate) fn spike_cpu(&self) -> &[f64] {
        &self.spike_cpu
    }

    /// Per-machine effective ρ, as of the last
    /// [`refresh_rho`](LoadTables::refresh_rho).
    pub(crate) fn rho(&self) -> &[f64] {
        &self.rho
    }

    /// Per-machine "hosts shards", as of the last
    /// [`degraded`](LoadTables::degraded).
    pub(crate) fn serving(&self) -> &[bool] {
        &self.serving
    }

    /// The events that were followed by at least one cross-checked read.
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn cross_checked(&self) -> u16 {
        self.checked
    }

    #[cfg(debug_assertions)]
    fn note_cross_check(&mut self) {
        self.checked |= self.pending;
        self.pending = 0;
    }
}

#[cfg(debug_assertions)]
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Builds the sampled-fanout arrival table into `weight`/`cum`: per-shard
/// CPU demand times any active spike factors (overlapping spikes compound
/// multiplicatively, matching the additive compounding of
/// [`build_spike_cpu`]). Returns the total weight and the live/base
/// total-weight ratio.
fn build_arrival_table(inp: &LoadInputs, weight: &mut Vec<f64>, cum: &mut Vec<f64>) -> (f64, f64) {
    weight.clear();
    for i in 0..inp.inst.n_shards() {
        weight.push(inp.inst.demand(ShardId::from(i))[0]);
    }
    let base_total: f64 = weight.iter().sum();
    for (idx, state) in inp.spikes.iter().enumerate() {
        let Some(shards) = state else { continue };
        let FaultSpec::Spike { factor, .. } = inp.faults[idx] else {
            continue;
        };
        for &s in shards {
            weight[s.idx()] *= factor;
        }
    }
    cum.clear();
    let mut total = 0.0;
    for &w in weight.iter() {
        total += w;
        cum.push(total);
    }
    let ratio = if base_total > 0.0 {
        total / base_total
    } else {
        1.0
    };
    (total, ratio)
}

/// Builds which machines host shards into `out`; returns whether any of
/// them has failed.
fn build_serving(inp: &LoadInputs, out: &mut [bool]) -> bool {
    for (m, s) in out.iter_mut().enumerate() {
        *s = !inp.asg.shards_on(MachineId::from(m)).is_empty();
    }
    inp.failed.iter().zip(out.iter()).any(|(&f, &s)| f && s)
}

/// Builds the extra CPU demand active flash crowds put on each machine.
fn build_spike_cpu(inp: &LoadInputs, out: &mut [f64]) {
    for x in out.iter_mut() {
        *x = 0.0;
    }
    let placement = inp.asg.placement();
    for (idx, state) in inp.spikes.iter().enumerate() {
        let Some(shards) = state else { continue };
        let FaultSpec::Spike { factor, .. } = inp.faults[idx] else {
            continue;
        };
        for &s in shards {
            let m = placement[s.idx()].idx();
            out[m] += (factor - 1.0) * inp.inst.demand(s)[0];
        }
    }
}
