//! Repair operators: re-insert detached shards.
//!
//! All repairs share the same hard rules, enforced through
//! [`SraProblem::insertion_score`] and the vacancy budget:
//!
//! * never overload a machine,
//! * never occupy a vacant machine when doing so would leave fewer than
//!   `k_return` vacancies (the exchange compensation would become
//!   impossible),
//! * a repair that cannot place every detached shard reports failure and
//!   the iteration is discarded.
//!
//! All operators implement the in-place edit protocol: they take the
//! state's `removed` buffer, attach through `SraState::attach` (undo-logged,
//! caches updated), and hand the buffer back — on failure with the unplaced
//! tail still listed, so the engine's revert sees a consistent state.

use crate::problem::{beats_floor, SraProblem};
use crate::state::{RegretEntry, SraState, REGRET_ABSENT, REGRET_UNKNOWN};
use rand::rngs::StdRng;
use rand::RngExt;
use rex_cluster::{Assignment, MachineId, ShardId};
use rex_lns::RepairInPlace;

/// Shared insertion state: tracks how many vacancies may still be consumed.
struct InsertCtx {
    vacancy_budget: usize,
}

impl InsertCtx {
    /// Builds the context from the state's cached vacancy budget.
    fn with_budget(vacancy_budget: usize) -> Self {
        Self { vacancy_budget }
    }

    /// Whether machine `m` may receive a shard right now.
    fn allowed(&self, asg: &Assignment, m: MachineId) -> bool {
        !asg.is_vacant(m) || self.vacancy_budget > 0
    }

    /// Registers that a shard was placed on `m` (must be called *before*
    /// the attach mutates vacancy state).
    fn consume(&mut self, asg: &Assignment, m: MachineId) {
        if asg.is_vacant(m) {
            self.vacancy_budget -= 1;
        }
    }
}

/// Sorts detached shards by decreasing demand norm (hardest first), using
/// the state's cached norms (the norm is a pure function of the static
/// demand).
fn sort_big_first_cached(state: &SraState, removed: &mut [ShardId]) {
    let norms = &state.demand_norm;
    removed.sort_by(|&a, &b| {
        norms[b.idx()]
            .partial_cmp(&norms[a.idx()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
}

/// Greedy best-fit: inserts shards, largest first, each on the machine with
/// the lowest insertion score.
#[derive(Clone, Copy, Debug)]
pub struct GreedyBestFit;

impl RepairInPlace<SraProblem<'_>> for GreedyBestFit {
    fn name(&self) -> &str {
        "greedy-best-fit"
    }

    fn repair(&self, p: &SraProblem<'_>, state: &mut SraState, _rng: &mut StdRng) -> bool {
        let mut removed = std::mem::take(&mut state.removed);
        sort_big_first_cached(state, &mut removed);
        rebuild_order(state, p.inst.n_machines());
        let mut ctx = InsertCtx::with_budget(state.vacancy_budget());
        for (idx, &s) in removed.iter().enumerate() {
            let Some((m, _)) = best_machine_cached(p, state, &ctx, s) else {
                removed.drain(..idx);
                state.removed = removed;
                return false;
            };
            ctx.consume(&state.asg, m);
            state.attach(p, s, m);
            reposition(state, m);
        }
        removed.clear();
        state.removed = removed;
        true
    }
}

/// Rebuilds the repair scan order: machine ids sorted by `(load, id)`
/// ascending, from the state's cached loads. Called once per in-place
/// repair invocation.
fn rebuild_order(state: &mut SraState, n_machines: usize) {
    let mut order = std::mem::take(&mut state.order);
    order.clear();
    order.extend(0..n_machines as u32);
    let loads = &state.loads;
    order.sort_unstable_by(|&a, &b| {
        loads[a as usize]
            .partial_cmp(&loads[b as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    state.order = order;
}

/// Restores the `(load, id)` invariant after machine `m`'s load grew: a
/// single bubble pass to the right.
fn reposition(state: &mut SraState, m: MachineId) {
    let raw = m.idx() as u32;
    let Some(mut i) = state.order.iter().position(|&x| x == raw) else {
        return;
    };
    while i + 1 < state.order.len() {
        let next = state.order[i + 1] as usize;
        let (lm, ln) = (state.loads[raw as usize], state.loads[next]);
        if ln < lm || (ln == lm && (next as u32) < raw) {
            state.order.swap(i, i + 1);
            i += 1;
        } else {
            break;
        }
    }
}

/// Best feasible machine for `s` under the insertion score, driven by the
/// load-sorted scan order with an early break. The true score of a machine
/// is its load *after* adding the shard's demand plus the migration
/// penalty, so `loads[m] + lift[s]` lower-bounds it ([`beats_floor`]);
/// once that bound reaches the running best, every later machine in load
/// order is beaten too. The shard's initial machine is visited first — it
/// is the only one whose penalty is zero. Selection is deterministic: ties
/// resolve to the earliest machine in scan order.
fn best_machine_cached(
    p: &SraProblem<'_>,
    state: &SraState,
    ctx: &InsertCtx,
    s: ShardId,
) -> Option<(MachineId, f64)> {
    let init_m = p.inst.initial[s.idx()];
    let mut best: Option<(MachineId, f64)> = None;
    if ctx.allowed(&state.asg, init_m) {
        if let Some(score) = p.insertion_score(&state.asg, s, init_m) {
            best = Some((init_m, score));
        }
    }
    let lift = state.lift[s.idx()];
    for &raw in &state.order {
        let m = MachineId::from(raw as usize);
        if m == init_m {
            continue;
        }
        if let Some((_, b)) = best {
            if beats_floor(state.loads[raw as usize], lift, b) {
                break; // later machines have equal or larger loads
            }
        }
        if !ctx.allowed(&state.asg, m) {
            continue;
        }
        if let Some(score) = p.insertion_score(&state.asg, s, m) {
            let better = match best {
                None => true,
                Some((_, b)) => score < b,
            };
            if better {
                best = Some((m, score));
            }
        }
    }
    best
}

/// Memo cell sentinel: the score is not known (never computed, or its
/// machine changed since). A NaN payload no arithmetic produces; cells
/// store `bits ^ MEMO_UNKNOWN`, so a zeroed cell reads as unknown.
const MEMO_UNKNOWN: u64 = 0x7ff8_0000_dead_0001;
/// Memo cell sentinel: the insertion is not admissible (`None`).
const MEMO_INADMISSIBLE: u64 = 0x7ff8_0000_dead_0002;

/// Per-repair memo of [`SraProblem::insertion_score`] for the regret-2
/// repair: one row per shard detached at the start of the repair, one
/// column per machine.
///
/// A score depends on the assignment only through its machine's usage, and
/// an attach on `m` changes only `m`'s usage — so a cell stays exact until
/// its machine receives a shard, when [`Self::invalidate`] clears that
/// column. Cells are column-major and start zeroed (= unknown), so a
/// repair touches only the columns of the machines its scans reach — the
/// lightly loaded head of the scan order — and the next repair clears just
/// those columns, never the whole `rows × machines` table. Rows never
/// move: `slot` maps a shard's current position in the repair's `removed`
/// list to its row and follows the list's `swap_remove`s. Owned by
/// [`SraState`] and reused across iterations: it grows a few times, to
/// `destroy cap × machines`, and then never allocates.
#[derive(Debug, Default)]
pub(crate) struct ScoreMemo {
    /// Row `r`'s score on machine `m` at `m * stride + r`, stored as
    /// `bits ^ MEMO_UNKNOWN`.
    cells: Vec<u64>,
    /// Columns holding cached scores, each listed once.
    dirty: Vec<u32>,
    /// Per machine: listed in `dirty`.
    is_dirty: Vec<bool>,
    /// Memo row of each position of the repair's `removed` list.
    slot: Vec<u32>,
    stride: usize,
}

impl ScoreMemo {
    /// Starts a repair over `rows` detached shards on `width` machines:
    /// every cell unknown, position `i` on row `i`.
    fn reset(&mut self, rows: usize, width: usize) {
        if rows > self.stride || self.is_dirty.len() != width {
            self.stride = rows.next_power_of_two();
            self.cells = vec![0; self.stride * width];
            self.is_dirty = vec![false; width];
            self.dirty.clear();
        }
        for &m in &self.dirty {
            let m = m as usize;
            self.cells[m * self.stride..(m + 1) * self.stride].fill(0);
            self.is_dirty[m] = false;
        }
        self.dirty.clear();
        self.slot.clear();
        self.slot.extend(0..rows as u32);
    }

    /// The memo row of the shard at position `pos` of `removed`.
    #[inline]
    fn row(&self, pos: usize) -> usize {
        self.slot[pos] as usize
    }

    /// Mirrors `removed.swap_remove(pos)`.
    #[inline]
    fn swap_remove(&mut self, pos: usize) {
        self.slot.swap_remove(pos);
    }

    /// Forgets every cached score on machine `m` (it just changed).
    #[inline]
    fn invalidate(&mut self, m: MachineId) {
        if self.is_dirty[m.idx()] {
            self.cells[m.idx() * self.stride..(m.idx() + 1) * self.stride].fill(0);
        }
    }

    /// [`SraProblem::insertion_score`] of `s` (memo row `row`) on `m`:
    /// the cached value when the cell was written after `m`'s last change,
    /// which equals a fresh call; otherwise a fresh call, cached. A NaN
    /// score is never cached, so no real value is mistaken for a sentinel.
    #[inline]
    fn score(
        &mut self,
        p: &SraProblem<'_>,
        asg: &Assignment,
        row: usize,
        s: ShardId,
        m: MachineId,
    ) -> Option<f64> {
        let i = m.idx() * self.stride + row;
        match self.cells[i] ^ MEMO_UNKNOWN {
            MEMO_UNKNOWN => {
                let score = p.insertion_score(asg, s, m);
                if !score.is_some_and(f64::is_nan) {
                    let bits = score.map_or(MEMO_INADMISSIBLE, f64::to_bits);
                    self.cells[i] = bits ^ MEMO_UNKNOWN;
                    if !self.is_dirty[m.idx()] {
                        self.is_dirty[m.idx()] = true;
                        self.dirty.push(m.idx() as u32);
                    }
                }
                score
            }
            MEMO_INADMISSIBLE => None,
            bits => Some(f64::from_bits(bits)),
        }
    }
}

/// Top-3 scan for one shard over the load-sorted order (initial machine
/// first), breaking once the load lower bound reaches the running third
/// slot — so every machine left unvisited (or visited but outscored)
/// provably scores at least the final `s[2]`, which is the invariant the
/// cascade update relies on. Scores come from memo row `row`. `None`
/// means no feasible machine (the repair must fail).
fn scan_regret(
    p: &SraProblem<'_>,
    state: &SraState,
    ctx: &InsertCtx,
    s: ShardId,
    memo: &mut ScoreMemo,
    row: usize,
) -> Option<RegretEntry> {
    let mut e = RegretEntry {
        m: [REGRET_ABSENT; 3],
        s: [f64::INFINITY; 3],
    };
    let init_m = p.inst.initial[s.idx()];
    let lift = state.lift[s.idx()];
    let mut consider = |m: MachineId, e: &mut RegretEntry| {
        if !ctx.allowed(&state.asg, m) {
            return;
        }
        if let Some(score) = memo.score(p, &state.asg, row, s, m) {
            push_top3(e, m, score);
        }
    };
    consider(init_m, &mut e);
    for &raw in &state.order {
        let m = MachineId::from(raw as usize);
        if m == init_m {
            continue;
        }
        if beats_floor(state.loads[raw as usize], lift, e.s[2]) {
            break; // cannot displace any slot, nor can any later machine
        }
        consider(m, &mut e);
    }
    if e.m[0] == REGRET_ABSENT {
        None
    } else {
        Some(e)
    }
}

/// Inserts `(m, score)` into a top-3 entry; a strict `<` keeps ties on the
/// earlier-visited machine.
#[inline]
fn push_top3(e: &mut RegretEntry, m: MachineId, score: f64) {
    let raw = m.idx() as u32;
    if score < e.s[0] {
        (e.m[2], e.s[2]) = (e.m[1], e.s[1]);
        (e.m[1], e.s[1]) = (e.m[0], e.s[0]);
        (e.m[0], e.s[0]) = (raw, score);
    } else if score < e.s[1] {
        (e.m[2], e.s[2]) = (e.m[1], e.s[1]);
        (e.m[1], e.s[1]) = (raw, score);
    } else if score < e.s[2] {
        (e.m[2], e.s[2]) = (raw, score);
    }
}

/// Rebuilds a regret entry after machine `m` — occupying slot `k` — grew,
/// without rescanning: the surviving slots keep exact values (their
/// machines' usage is untouched), `m`'s fresh score is `rescored`, and the
/// old `s[2]` remains a lower bound on every machine outside the old entry.
/// Slots stay exact while their value does not exceed that bound; a third
/// slot that would, degrades to [`REGRET_UNKNOWN`] carrying the bound.
/// Returns `None` when the exact best/second-best can no longer be derived
/// locally and a full rescan is required.
fn cascade(e: &RegretEntry, k: usize, m: MachineId, rescored: Option<f64>) -> Option<RegretEntry> {
    let bound = e.s[2];
    let mut cand_m = [0u32; 4];
    let mut cand_s = [0.0f64; 4];
    let mut n = 0usize;
    for j in 0..3 {
        if j != k && e.m[j] != REGRET_ABSENT && e.m[j] != REGRET_UNKNOWN {
            cand_m[n] = e.m[j];
            cand_s[n] = e.s[j];
            n += 1;
        }
    }
    // `m` just received a shard, so it is non-vacant and always allowed;
    // insert its new score after any value-equal survivors, so ties
    // resolve deterministically toward the established slots.
    if let Some(ns) = rescored {
        let mut pos = n;
        while pos > 0 && ns < cand_s[pos - 1] {
            pos -= 1;
        }
        for j in (pos..n).rev() {
            cand_m[j + 1] = cand_m[j];
            cand_s[j + 1] = cand_s[j];
        }
        cand_m[pos] = m.idx() as u32;
        cand_s[pos] = ns;
        n += 1;
    }
    if bound.is_infinite() {
        // The original scan never broke early, so the candidates are the
        // complete feasible set and missing slots are exact ABSENTs.
        if n == 0 {
            return None; // nothing feasible left; the rescan confirms & fails
        }
        let mut ne = RegretEntry {
            m: [REGRET_ABSENT; 3],
            s: [f64::INFINITY; 3],
        };
        for j in 0..n.min(3) {
            (ne.m[j], ne.s[j]) = (cand_m[j], cand_s[j]);
        }
        return Some(ne);
    }
    if n < 2 || cand_s[1] > bound {
        return None; // top-2 not provably exact any more
    }
    let third_exact = n >= 3 && cand_s[2] <= bound;
    Some(RegretEntry {
        m: [
            cand_m[0],
            cand_m[1],
            if third_exact {
                cand_m[2]
            } else {
                REGRET_UNKNOWN
            },
        ],
        s: [
            cand_s[0],
            cand_s[1],
            if third_exact { cand_s[2] } else { bound },
        ],
    })
}

/// Regret-2 insertion: repeatedly inserts the shard that would lose the
/// most by *not* getting its best machine (difference between its best and
/// second-best scores). Shards with a single feasible machine have infinite
/// regret and go first.
#[derive(Clone, Copy, Debug)]
pub struct Regret2Insert;

impl RepairInPlace<SraProblem<'_>> for Regret2Insert {
    fn name(&self) -> &str {
        "regret-2"
    }

    /// Incremental regret loop: an attach on machine `m` only changes
    /// scores *on* `m` (and only for the worse — usage grows
    /// monotonically), so a shard whose cached best and second-best live
    /// elsewhere keeps a bit-identical entry and is not rescanned. The
    /// per-round cost drops from `O(removed · machines)` to a handful of
    /// rescans, except when the vacancy budget reaches zero — that flips
    /// the allowed-set for every vacant machine, so everything is rescanned
    /// once. Rescans and cascades read scores through the `ScoreMemo`, so
    /// each `(shard, machine)` pair is scored once per change of the
    /// machine rather than once per visit.
    fn repair(&self, p: &SraProblem<'_>, state: &mut SraState, _rng: &mut StdRng) -> bool {
        let mut removed = std::mem::take(&mut state.removed);
        let mut entries = std::mem::take(&mut state.regret);
        let mut memo = std::mem::take(&mut state.score_memo);
        rebuild_order(state, p.inst.n_machines());
        memo.reset(removed.len(), p.inst.n_machines());
        entries.clear();
        let ok = regret_loop(p, state, &mut removed, &mut entries, &mut memo);
        entries.clear();
        state.removed = removed;
        state.regret = entries;
        state.score_memo = memo;
        ok
    }
}

/// The body of [`Regret2Insert`]'s repair. On failure `removed` still lists
/// the unplaced shards.
fn regret_loop(
    p: &SraProblem<'_>,
    state: &mut SraState,
    removed: &mut Vec<ShardId>,
    entries: &mut Vec<RegretEntry>,
    memo: &mut ScoreMemo,
) -> bool {
    let mut ctx = InsertCtx::with_budget(state.vacancy_budget());
    for (i, &s) in removed.iter().enumerate() {
        let Some(e) = scan_regret(p, state, &ctx, s, memo, memo.row(i)) else {
            return false;
        };
        entries.push(e);
    }
    while !removed.is_empty() {
        let mut pick = 0usize;
        let mut best_regret = f64::NEG_INFINITY;
        for (idx, e) in entries.iter().enumerate() {
            let regret = e.s[1] - e.s[0]; // INFINITY - finite = INFINITY
            if idx == 0 || regret > best_regret {
                pick = idx;
                best_regret = regret;
            }
        }
        let m = MachineId::from(entries[pick].m[0] as usize);
        let s = removed.swap_remove(pick);
        entries.swap_remove(pick);
        memo.swap_remove(pick);
        let was_vacant = state.asg.is_vacant(m);
        ctx.consume(&state.asg, m);
        state.attach(p, s, m);
        reposition(state, m);
        memo.invalidate(m);
        let rescan_all = was_vacant && ctx.vacancy_budget == 0;
        let m_raw = m.idx() as u32;
        for i in 0..removed.len() {
            let row = memo.row(i);
            if !rescan_all {
                let e = entries[i];
                let Some(k) = e.m.iter().position(|&x| x == m_raw) else {
                    continue; // scores elsewhere are untouched
                };
                let rescored = memo.score(p, &state.asg, row, removed[i], m);
                if let Some(ne) = cascade(&e, k, m, rescored) {
                    entries[i] = ne;
                    continue;
                }
            }
            let Some(e) = scan_regret(p, state, &ctx, removed[i], memo, row) else {
                return false;
            };
            entries[i] = e;
        }
    }
    true
}

/// Randomized greedy: like best-fit but each shard samples `sample`
/// candidate machines and takes the best of the sample. Adds the
/// diversification pure best-fit lacks, at a fraction of its cost on large
/// fleets.
#[derive(Clone, Copy, Debug)]
pub struct RandomizedGreedy {
    /// Number of machines sampled per shard.
    pub sample: usize,
}

impl RepairInPlace<SraProblem<'_>> for RandomizedGreedy {
    fn name(&self) -> &str {
        "randomized-greedy"
    }

    fn repair(&self, p: &SraProblem<'_>, state: &mut SraState, rng: &mut StdRng) -> bool {
        let mut removed = std::mem::take(&mut state.removed);
        sort_big_first_cached(state, &mut removed);
        rebuild_order(state, p.inst.n_machines());
        let mut ctx = InsertCtx::with_budget(state.vacancy_budget());
        let n = p.inst.n_machines();
        for (idx, &s) in removed.iter().enumerate() {
            let mut best: Option<(MachineId, f64)> = None;
            for _ in 0..self.sample.max(1) {
                let m = MachineId::from(rng.random_range(0..n));
                if !ctx.allowed(&state.asg, m) {
                    continue;
                }
                if let Some((_, b)) = best {
                    // The initial machine's score carries no penalty, so
                    // its floor is the bare load.
                    let lift = if m == p.inst.initial[s.idx()] {
                        0.0
                    } else {
                        state.lift[s.idx()]
                    };
                    if beats_floor(state.loads[m.idx()], lift, b) {
                        continue;
                    }
                }
                if let Some(score) = p.insertion_score(&state.asg, s, m) {
                    if best.is_none_or(|(_, b)| score < b) {
                        best = Some((m, score));
                    }
                }
            }
            // Fall back to the full scan when sampling found nothing — the
            // shard may genuinely have only a few feasible hosts.
            let found = match best {
                Some(x) => Some(x),
                None => best_machine_cached(p, state, &ctx, s),
            };
            let Some((m, _)) = found else {
                removed.drain(..idx);
                state.removed = removed;
                return false;
            };
            ctx.consume(&state.asg, m);
            state.attach(p, s, m);
            reposition(state, m);
        }
        removed.clear();
        state.removed = removed;
        true
    }
}

/// The full default repair portfolio used by SRA.
pub fn default_repairs_in_place<'a>() -> Vec<Box<dyn RepairInPlace<SraProblem<'a>>>> {
    vec![
        Box::new(GreedyBestFit),
        Box::new(Regret2Insert),
        Box::new(RandomizedGreedy { sample: 8 }),
    ]
}

/// The best-fit, randomized-greedy and regret-2 repairs as they were
/// before the score memo and the lifted floor: every visit calls
/// `insertion_score`, and the scans stop (or skip) on the plain
/// `loads + pen` bound. The differential tests hold the production
/// operators to these, decision for decision.
#[cfg(test)]
mod reference {
    use super::*;

    fn best_machine(
        p: &SraProblem<'_>,
        state: &SraState,
        ctx: &InsertCtx,
        s: ShardId,
    ) -> Option<(MachineId, f64)> {
        let init_m = p.inst.initial[s.idx()];
        let mut best: Option<(MachineId, f64)> = None;
        if ctx.allowed(&state.asg, init_m) {
            if let Some(score) = p.insertion_score(&state.asg, s, init_m) {
                best = Some((init_m, score));
            }
        }
        let pen = p.insertion_penalty(s);
        for &raw in &state.order {
            let m = MachineId::from(raw as usize);
            if m == init_m {
                continue;
            }
            if let Some((_, b)) = best {
                if state.loads[raw as usize] + pen >= b {
                    break;
                }
            }
            if !ctx.allowed(&state.asg, m) {
                continue;
            }
            if let Some(score) = p.insertion_score(&state.asg, s, m) {
                let better = match best {
                    None => true,
                    Some((_, b)) => score < b,
                };
                if better {
                    best = Some((m, score));
                }
            }
        }
        best
    }

    fn scan_regret(
        p: &SraProblem<'_>,
        state: &SraState,
        ctx: &InsertCtx,
        s: ShardId,
    ) -> Option<RegretEntry> {
        let mut e = RegretEntry {
            m: [REGRET_ABSENT; 3],
            s: [f64::INFINITY; 3],
        };
        let init_m = p.inst.initial[s.idx()];
        let pen = p.insertion_penalty(s);
        let consider = |m: MachineId, e: &mut RegretEntry| {
            if !ctx.allowed(&state.asg, m) {
                return;
            }
            if let Some(score) = p.insertion_score(&state.asg, s, m) {
                push_top3(e, m, score);
            }
        };
        consider(init_m, &mut e);
        for &raw in &state.order {
            let m = MachineId::from(raw as usize);
            if m == init_m {
                continue;
            }
            if state.loads[raw as usize] + pen >= e.s[2] {
                break;
            }
            consider(m, &mut e);
        }
        if e.m[0] == REGRET_ABSENT {
            None
        } else {
            Some(e)
        }
    }

    /// [`GreedyBestFit`] over [`best_machine`].
    pub(super) fn greedy_best_fit(p: &SraProblem<'_>, state: &mut SraState) -> bool {
        let mut removed = std::mem::take(&mut state.removed);
        sort_big_first_cached(state, &mut removed);
        rebuild_order(state, p.inst.n_machines());
        let mut ctx = InsertCtx::with_budget(state.vacancy_budget());
        for (idx, &s) in removed.iter().enumerate() {
            let Some((m, _)) = best_machine(p, state, &ctx, s) else {
                removed.drain(..idx);
                state.removed = removed;
                return false;
            };
            ctx.consume(&state.asg, m);
            state.attach(p, s, m);
            reposition(state, m);
        }
        removed.clear();
        state.removed = removed;
        true
    }

    /// [`RandomizedGreedy`] skipping on the plain penalty floor and
    /// falling back to [`best_machine`].
    pub(super) fn randomized_greedy(
        p: &SraProblem<'_>,
        state: &mut SraState,
        rng: &mut StdRng,
        sample: usize,
    ) -> bool {
        let mut removed = std::mem::take(&mut state.removed);
        sort_big_first_cached(state, &mut removed);
        rebuild_order(state, p.inst.n_machines());
        let mut ctx = InsertCtx::with_budget(state.vacancy_budget());
        let n = p.inst.n_machines();
        for (idx, &s) in removed.iter().enumerate() {
            let mut best: Option<(MachineId, f64)> = None;
            for _ in 0..sample.max(1) {
                let m = MachineId::from(rng.random_range(0..n));
                if !ctx.allowed(&state.asg, m) {
                    continue;
                }
                if let Some((_, b)) = best {
                    let pen = if m == p.inst.initial[s.idx()] {
                        0.0
                    } else {
                        p.insertion_penalty(s)
                    };
                    if state.loads[m.idx()] + pen >= b {
                        continue;
                    }
                }
                if let Some(score) = p.insertion_score(&state.asg, s, m) {
                    if best.is_none_or(|(_, b)| score < b) {
                        best = Some((m, score));
                    }
                }
            }
            let found = match best {
                Some(x) => Some(x),
                None => best_machine(p, state, &ctx, s),
            };
            let Some((m, _)) = found else {
                removed.drain(..idx);
                state.removed = removed;
                return false;
            };
            ctx.consume(&state.asg, m);
            state.attach(p, s, m);
            reposition(state, m);
        }
        removed.clear();
        state.removed = removed;
        true
    }

    /// [`Regret2Insert`] over [`scan_regret`], re-scoring in every cascade.
    pub(super) fn regret2(p: &SraProblem<'_>, state: &mut SraState) -> bool {
        let mut removed = std::mem::take(&mut state.removed);
        let mut entries: Vec<RegretEntry> = Vec::new();
        rebuild_order(state, p.inst.n_machines());
        let mut ctx = InsertCtx::with_budget(state.vacancy_budget());
        for &s in &removed {
            let Some(e) = scan_regret(p, state, &ctx, s) else {
                state.removed = removed;
                return false;
            };
            entries.push(e);
        }
        while !removed.is_empty() {
            let mut pick = 0usize;
            let mut best_regret = f64::NEG_INFINITY;
            for (idx, e) in entries.iter().enumerate() {
                let regret = e.s[1] - e.s[0];
                if idx == 0 || regret > best_regret {
                    pick = idx;
                    best_regret = regret;
                }
            }
            let m = MachineId::from(entries[pick].m[0] as usize);
            let s = removed.swap_remove(pick);
            entries.swap_remove(pick);
            let was_vacant = state.asg.is_vacant(m);
            ctx.consume(&state.asg, m);
            state.attach(p, s, m);
            reposition(state, m);
            let rescan_all = was_vacant && ctx.vacancy_budget == 0;
            let m_raw = m.idx() as u32;
            for i in 0..removed.len() {
                if !rescan_all {
                    let e = entries[i];
                    let Some(k) = e.m.iter().position(|&x| x == m_raw) else {
                        continue;
                    };
                    let rescored = p.insertion_score(&state.asg, removed[i], m);
                    if let Some(ne) = cascade(&e, k, m, rescored) {
                        entries[i] = ne;
                        continue;
                    }
                }
                let Some(e) = scan_regret(p, state, &ctx, removed[i]) else {
                    state.removed = removed;
                    return false;
                };
                entries[i] = e;
            }
        }
        state.removed = removed;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SCORE_CALLS;
    use rand::SeedableRng;
    use rex_cluster::{Instance, InstanceBuilder, Objective, ObjectiveKind};
    use rex_lns::LnsProblem;
    use rex_workload::synthetic::{generate, DemandFamily, MachineProfile, Placement, SynthConfig};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    fn inst() -> Instance {
        let mut b = InstanceBuilder::new(1).label("r");
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        let _x = b.exchange_machine(&[10.0]);
        b.shard(&[6.0], 1.0, m0);
        b.shard(&[3.0], 1.0, m0);
        b.shard(&[2.0], 1.0, m1);
        b.build().unwrap()
    }

    fn detach_all_state(p: &SraProblem<'_>) -> SraState {
        let mut state = p.make_state(Assignment::from_initial(p.inst));
        for i in 0..p.inst.n_shards() {
            state.detach(p, ShardId::from(i));
        }
        state
    }

    #[test]
    fn greedy_best_fit_balances() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::pure(ObjectiveKind::PeakLoad));
        let mut state = detach_all_state(&p);
        assert!(RepairInPlace::repair(
            &GreedyBestFit,
            &p,
            &mut state,
            &mut rng()
        ));
        let sol = state.solution();
        assert!(LnsProblem::is_feasible(&p, sol));
        // Greedy LPT on {6,3,2} over two usable machines (one must stay
        // vacant): 6 | 3+2 → peak 0.6.
        assert!(
            (sol.peak_load(&inst) - 0.6).abs() < 1e-9,
            "peak={}",
            sol.peak_load(&inst)
        );
    }

    #[test]
    fn repairs_respect_vacancy_quota() {
        let inst = inst(); // k_return = 1
        let p = SraProblem::new(&inst, Objective::pure(ObjectiveKind::PeakLoad));
        for repair in default_repairs_in_place() {
            let mut state = detach_all_state(&p);
            assert!(
                repair.repair(&p, &mut state, &mut rng()),
                "{} failed",
                repair.name()
            );
            assert!(
                state.solution().vacant_count() >= inst.k_return,
                "{} violated the vacancy quota",
                repair.name()
            );
        }
    }

    #[test]
    fn regret2_produces_feasible_balanced_solution() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::pure(ObjectiveKind::PeakLoad));
        let mut state = detach_all_state(&p);
        assert!(RepairInPlace::repair(
            &Regret2Insert,
            &p,
            &mut state,
            &mut rng()
        ));
        assert!(LnsProblem::is_feasible(&p, state.solution()));
        assert!(state.solution().peak_load(&inst) <= 0.9 + 1e-9);
    }

    #[test]
    fn randomized_greedy_is_feasible_across_seeds() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::pure(ObjectiveKind::PeakLoad));
        for seed in 0..10 {
            let mut r = StdRng::seed_from_u64(seed);
            let mut state = detach_all_state(&p);
            assert!(
                RepairInPlace::repair(&RandomizedGreedy { sample: 2 }, &p, &mut state, &mut r),
                "seed {seed}"
            );
            assert!(LnsProblem::is_feasible(&p, state.solution()), "seed {seed}");
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::pure(ObjectiveKind::PeakLoad));
        let mut sa = detach_all_state(&p);
        let mut sb = detach_all_state(&p);
        assert!(RepairInPlace::repair(
            &GreedyBestFit,
            &p,
            &mut sa,
            &mut rng()
        ));
        assert!(RepairInPlace::repair(
            &GreedyBestFit,
            &p,
            &mut sb,
            &mut rng()
        ));
        assert_eq!(sa.solution().placement(), sb.solution().placement());
    }

    #[test]
    fn default_portfolio_names() {
        let ops = default_repairs_in_place();
        let names: Vec<&str> = ops.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            vec!["greedy-best-fit", "regret-2", "randomized-greedy"]
        );
    }

    #[test]
    fn in_place_repairs_complete_detached_states() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::pure(ObjectiveKind::PeakLoad));
        for repair in default_repairs_in_place() {
            let mut state = detach_all_state(&p);
            let ok = repair.repair(&p, &mut state, &mut rng());
            assert!(ok, "{} failed on a repairable state", repair.name());
            assert!(state.removed().is_empty());
            assert!(p.state_feasible(&state), "{}", repair.name());
            assert!(
                LnsProblem::is_feasible(&p, state.solution()),
                "{} produced an infeasible solution",
                repair.name()
            );
            state.solution().validate_consistency(&inst).unwrap();
        }
    }

    #[test]
    fn in_place_repair_failure_leaves_revertible_state() {
        // m0 (cap 20) hosts F=11 and B=9; m1 (cap 8) hosts G=5. Detach B
        // and cram G onto m0: now B fits nowhere (m0: 16+9 > 20, m1: 9 > 8),
        // so every repair must report failure.
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[20.0]);
        let m1 = b.machine(&[8.0]);
        b.shard(&[11.0], 1.0, m0);
        let shard_b = b.shard(&[9.0], 1.0, m0);
        let g = b.shard(&[5.0], 1.0, m1);
        let inst = b.build().unwrap();
        let p = SraProblem::new(&inst, Objective::default());
        let mut asg = Assignment::from_initial(&inst);
        asg.move_shard(&inst, g, MachineId(0));
        let before = asg.placement().to_vec();
        for repair in default_repairs_in_place() {
            let mut state = p.make_state(asg.clone());
            state.detach(&p, shard_b);
            assert!(
                !repair.repair(&p, &mut state, &mut rng()),
                "{} should fail",
                repair.name()
            );
            LnsProblem::revert(&p, &mut state);
            assert_eq!(state.solution().placement(), before.as_slice());
        }
    }

    /// What one differential case exercised.
    #[derive(Debug, Default)]
    struct Coverage {
        repaired: usize,
        failed: usize,
        /// Regret repairs that consumed their whole vacancy budget, so the
        /// `rescan_all` branch ran.
        budget_exhausted: usize,
    }

    /// A random instance (fleet shape, dims, α, capacity profile, drain)
    /// and two random destroy sets — random shards plus, half the time,
    /// whole machines, which opens a vacancy budget — repaired one after
    /// the other on twin states by each production operator and by its
    /// pre-memo reference. After each repair, placement, leftover
    /// `removed` list and success flag must agree exactly.
    fn differential_case(seed: u64, cov: &mut Coverage) -> Result<(), String> {
        let mut r = StdRng::seed_from_u64(seed);
        let machines = r.random_range(3..18usize);
        let cfg = SynthConfig {
            n_machines: machines,
            n_exchange: r.random_range(1..4usize),
            n_shards: r.random_range(2 * machines..12 * machines),
            dims: r.random_range(1..4usize),
            stringency: r.random_range(0.35..0.97),
            alpha: [0.0, 0.1, 0.25][r.random_range(0..3usize)],
            family: [
                DemandFamily::Uniform,
                DemandFamily::Zipf,
                DemandFamily::Correlated,
                DemandFamily::BigShards,
            ][r.random_range(0..4usize)],
            placement: [Placement::Hotspot(0.4), Placement::BalancedBfd][r.random_range(0..2usize)],
            profile: if r.random_range(0..3u32) == 0 {
                MachineProfile::TwoTier {
                    big_fraction: 0.3,
                    ratio: 2.0,
                }
            } else {
                MachineProfile::Homogeneous
            },
            seed,
        };
        let Ok(inst) = generate(&cfg) else {
            return Ok(());
        };
        let objective = Objective {
            kind: [ObjectiveKind::PeakLoad, ObjectiveKind::L2Imbalance][r.random_range(0..2usize)],
            lambda: [0.0, 0.25, 2.0][r.random_range(0..3usize)],
        };
        let mut p = SraProblem::new(&inst, objective);
        if r.random_range(0..4u32) == 0 {
            p = p.with_drain(&[MachineId::from(r.random_range(0..inst.n_machines()))]);
        }
        let base = Assignment::from_initial(&inst);

        // Two destroy sets, repaired in turn on the same states so the
        // second repair reuses the first one's buffers. The first takes
        // whole machines (opening a vacancy budget) half the time; both
        // take random shards.
        let mut sets: [Vec<ShardId>; 2] = Default::default();
        if r.random_range(0..2u32) == 0 {
            for _ in 0..r.random_range(1..3usize) {
                let m = MachineId::from(r.random_range(0..inst.n_machines()));
                sets[0].extend_from_slice(base.shards_on(m));
            }
        }
        for set in &mut sets {
            for _ in 0..r.random_range(1..=inst.n_shards().min(64)) {
                set.push(ShardId::from(r.random_range(0..inst.n_shards())));
            }
            set.sort_unstable();
            set.dedup();
        }

        type Reference<'r> = &'r dyn Fn(&SraProblem<'_>, &mut SraState, &mut StdRng) -> bool;
        let sampled = RandomizedGreedy { sample: 3 };
        let pairs: [(&dyn RepairInPlace<SraProblem<'_>>, Reference); 3] = [
            (&Regret2Insert, &|p, st, _| reference::regret2(p, st)),
            (&GreedyBestFit, &|p, st, _| {
                reference::greedy_best_fit(p, st)
            }),
            (&sampled, &|p, st, r| {
                reference::randomized_greedy(p, st, r, sampled.sample)
            }),
        ];
        for (op, reference) in pairs {
            let (mut a, mut b) = (p.make_state(base.clone()), p.make_state(base.clone()));
            for (round, set) in sets.iter().enumerate() {
                for &s in set {
                    a.detach(&p, s);
                    b.detach(&p, s);
                }
                let (budget, vacant) = (a.vacancy_budget(), a.vacant_count());
                let ok = op.repair(&p, &mut a, &mut rng());
                let ok_ref = reference(&p, &mut b, &mut rng());
                let label = format!(
                    "seed {seed} round {round} {}: {cfg:?} {objective:?}",
                    op.name()
                );
                if ok != ok_ref {
                    return Err(format!("{label}: success {ok} vs reference {ok_ref}"));
                }
                if a.solution().placement() != b.solution().placement() {
                    return Err(format!("{label}: placements differ"));
                }
                if a.removed() != b.removed() {
                    return Err(format!("{label}: unplaced shards differ"));
                }
                if ok {
                    cov.repaired += 1;
                    if op.name() == "regret-2" && budget > 0 && vacant - a.vacant_count() == budget
                    {
                        cov.budget_exhausted += 1;
                    }
                    LnsProblem::commit(&p, &mut a);
                    LnsProblem::commit(&p, &mut b);
                } else {
                    cov.failed += 1;
                    LnsProblem::revert(&p, &mut a);
                    LnsProblem::revert(&p, &mut b);
                }
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The memoized regret-2 and the lifted scan floors change no
        /// decision: same placement and success flag as the references.
        #[test]
        fn memoized_repairs_match_their_references(seed in proptest::prelude::any::<u64>()) {
            let mut cov = Coverage::default();
            if let Err(msg) = differential_case(seed, &mut cov) {
                proptest::prop_assert!(false, "{}", msg);
            }
        }
    }

    #[test]
    fn differential_cases_cover_failures_and_exhausted_budgets() {
        let mut cov = Coverage::default();
        for seed in 0..200 {
            differential_case(seed, &mut cov).unwrap();
        }
        assert!(cov.repaired > 0, "{cov:?}");
        assert!(cov.failed > 0, "no failing repair exercised: {cov:?}");
        assert!(
            cov.budget_exhausted > 0,
            "the rescan_all branch never ran: {cov:?}"
        );
    }

    /// The memo's saving as a deterministic count: the number of
    /// `insertion_score` evaluations one fixed regret-2 repair performs,
    /// against the reference on the twin state.
    #[test]
    fn regret2_score_evaluations_are_pinned() {
        let inst = generate(&SynthConfig {
            n_machines: 40,
            n_exchange: 5,
            n_shards: 400,
            placement: Placement::Hotspot(0.4),
            seed: 1,
            ..Default::default()
        })
        .unwrap();
        let p = SraProblem::new(
            &inst,
            Objective {
                kind: ObjectiveKind::PeakLoad,
                lambda: 0.25,
            },
        );
        let twin = || {
            let mut st = p.make_state(Assignment::from_initial(&inst));
            for i in (0..inst.n_shards()).step_by(7).take(48) {
                st.detach(&p, ShardId::from(i));
            }
            st
        };
        let count = |f: &dyn Fn(&mut SraState) -> bool| {
            let mut st = twin();
            let before = SCORE_CALLS.with(|c| c.get());
            assert!(f(&mut st));
            (
                SCORE_CALLS.with(|c| c.get()) - before,
                st.solution().placement().to_vec(),
            )
        };
        let (memo, placed) = count(&|st| Regret2Insert.repair(&p, st, &mut rng()));
        let (plain, placed_ref) = count(&|st| reference::regret2(&p, st));
        assert_eq!(placed, placed_ref);
        assert_eq!(
            (memo, plain),
            (1810, 9817),
            "score evaluations (memo, reference)"
        );
    }
}
