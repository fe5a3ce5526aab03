//! The knowledge-compilation exact backend: explores the same global Markov
//! chain as [`analyze`](crate::engine::analyze), but represents each step's
//! frontier as [`bayonet_bdd`] algebraic decision diagrams instead of an
//! explicit configuration list.
//!
//! # Factoring
//!
//! A global configuration is a scheduler state plus one local configuration
//! per node. Local configurations are interned to dense ids, and a weighted
//! *set* of global configurations becomes one diagram whose block `b` holds
//! the id of node `b`'s local configuration (see the [`bayonet_bdd`] crate
//! docs for the encoding). The frontier is partitioned into groups keyed by
//! `(sched_state, per-node queue flags, guard)` — everything the scheduler
//! distribution and action enabling depend on — so one scheduler call and
//! one set-level transform replace thousands of per-configuration ones:
//!
//! * `(Run, i)`: handler branches are enumerated **once per distinct local
//!   configuration of node `i`** (memoized on `(node, id, guard)`), and one
//!   [`transform`] pass applies every branch to every represented
//!   configuration simultaneously, rebuilding the shared diagram prefix
//!   once per *successor group* instead of once per configuration.
//! * `(Fwd, i)`: the queue pop at `i` and the push at the link destination
//!   are a nested pair of block transforms in one pass.
//!
//! Conditional independence between nodes shows up as structure sharing, so
//! product-shaped frontiers cost diagram nodes linear — not exponential —
//! in the node count.
//!
//! # Parity with enumeration
//!
//! The produced [`Analysis`] is **bit-identical** to the enumeration
//! engine's: identical terminals (same canonical sort), identical discarded
//! mass per guard, and identical `steps`/`expansions`/`peak_configs`
//! (diagram paths count exactly the merged configurations enumeration would
//! track). Exact rational arithmetic is order-insensitive, so regrouping
//! sums and products cannot perturb a single bit of the posterior.
//! `merge_hits` counts diagram-level merges instead of per-configuration
//! ones and therefore differs; `crates/exact/tests/differential.rs` pins the
//! posterior equality over every curated example and generated corpus. The
//! backend is single-threaded — diagrams make the work small instead of
//! parallel — and ignores `threads`, which keeps it trivially deterministic
//! across the thread matrix. Groups are expanded in sorted key order, so
//! every reported statistic (including the `bayonet_bdd_*` counters) is
//! deterministic as well.
//!
//! One deliberate divergence: a branch of exactly zero weight (`flip(0)` /
//! `flip(1)`, which no curated or generated program uses) is dropped here,
//! while enumeration carries the zero-mass configuration explicitly.

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

use bayonet_bdd::{FastMap, NodeRef, Store, BLOCK_BITS};
use bayonet_num::Rat;
use bayonet_symbolic::{FeasibilityCache, Guard};

use bayonet_net::opt::SymmetryGroup;
use bayonet_net::{
    initial_config, run_handler, Action, Deadline, GlobalConfig, HandlerOutcome, Model, NodeConfig,
    Packet, Scheduler, SemanticsError, Val,
};

use crate::engine::{Analysis, EngineStats, ExactError, ExactOptions};
use crate::enumerate::enumerate_eval_cached;

/// Dense interner for node-local configurations: block `b` of every diagram
/// stores indices into this table. Configurations are held by `Arc`, so
/// decoding an id into a [`GlobalConfig`] node shares it instead of copying.
#[derive(Default)]
struct Interner {
    list: Vec<Arc<NodeConfig>>,
    /// `(q_in nonempty, q_out nonempty)` per id — the action-enabling flags.
    flags: Vec<(bool, bool)>,
    errors: Vec<bool>,
    map: FastMap<Arc<NodeConfig>, u32>,
}

impl Interner {
    /// The id of an owned configuration, interning it if new.
    fn id(&mut self, cfg: NodeConfig) -> u32 {
        match self.map.get(&cfg) {
            Some(&id) => id,
            None => self.insert(Arc::new(cfg)),
        }
    }

    /// The id of a shared configuration, interning it (by reference) if new.
    fn id_shared(&mut self, cfg: &Arc<NodeConfig>) -> u32 {
        match self.map.get(&**cfg) {
            Some(&id) => id,
            None => self.insert(Arc::clone(cfg)),
        }
    }

    fn insert(&mut self, cfg: Arc<NodeConfig>) -> u32 {
        let id = self.list.len() as u32;
        self.flags
            .push((!cfg.q_in.is_empty(), !cfg.q_out.is_empty()));
        self.errors.push(cfg.error);
        self.list.push(Arc::clone(&cfg));
        self.map.insert(cfg, id);
        id
    }

    fn get(&self, id: u32) -> &Arc<NodeConfig> {
        &self.list[id as usize]
    }

    fn flag(&self, id: u32) -> (bool, bool) {
        self.flags[id as usize]
    }
}

/// Frontier group key: everything action enabling and the scheduler
/// distribution can depend on. Groups are expanded in sorted order so every
/// statistic the engine reports is deterministic.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct GroupKey {
    sched_state: u32,
    flags: Vec<(bool, bool)>,
    guard: Guard,
}

impl GroupKey {
    fn enabled(&self) -> Vec<Action> {
        let mut out = Vec::new();
        for (i, &(q_in, _)) in self.flags.iter().enumerate() {
            if q_in {
                out.push(Action::Run(i));
            }
        }
        for (i, &(_, q_out)) in self.flags.iter().enumerate() {
            if q_out {
                out.push(Action::Fwd(i));
            }
        }
        out
    }
}

/// One memoized handler branch of `(Run, i)` on a given local configuration.
struct RunBranch {
    weight: Rat,
    /// `weight` interned in the store (id arithmetic avoids re-hashing).
    weight_id: u32,
    guard: Guard,
    outcome: HandlerOutcome,
    /// Interned successor local configuration (error flag already applied
    /// for `AssertFailed`). Unused for `ObserveFailed`.
    new_id: u32,
}

/// The memoized effect of `(Fwd, i)` on one local configuration of `i`.
enum FwdInfo {
    /// The link loops back to the sender: pop and push both applied.
    Local { new_id: u32 },
    /// Pop applied at the sender; the packet lands at `dst`.
    Remote {
        new_id: u32,
        dst: usize,
        /// Interned `(packet, arrival port)` delivery context.
        ctx: u32,
    },
}

impl FwdInfo {
    fn dst(&self, i: usize) -> usize {
        match self {
            FwdInfo::Local { .. } => i,
            FwdInfo::Remote { dst, .. } => *dst,
        }
    }
}

/// Memo tables and model context shared by the transform leaf callbacks.
struct Ctx<'a> {
    model: &'a Model,
    fm_pruning: bool,
    cache: Option<&'a FeasibilityCache>,
    deadline: &'a Deadline,
    interner: Interner,
    run_memo: HashMap<(usize, u32), RunMemo>,
    fwd_memo: HashMap<(usize, u32), Rc<FwdInfo>>,
    /// Packet arrivals: `(dst local config, delivery ctx) -> successor id`.
    push_memo: HashMap<(u32, u32), u32>,
    /// Interned `(packet, arrival port)` delivery contexts.
    ctx_list: Vec<(Packet, u32)>,
    ctx_map: HashMap<(Packet, u32), u32>,
}

impl Ctx<'_> {
    /// Interns a `(packet, arrival port)` delivery context.
    fn ctx_id(&mut self, pkt: Packet, port: u32) -> u32 {
        if let Some(&id) = self.ctx_map.get(&(pkt.clone(), port)) {
            return id;
        }
        let id = self.ctx_list.len() as u32;
        self.ctx_list.push((pkt.clone(), port));
        self.ctx_map.insert((pkt, port), id);
        id
    }

    /// The handler branches of `(Run, i)` on local configuration `v` under
    /// `guard` — computed once per distinct `(i, v, guard)`.
    fn run_branches(
        &mut self,
        store: &mut Store,
        i: usize,
        v: u32,
        guard: &Guard,
    ) -> Result<Rc<Vec<RunBranch>>, ExactError> {
        if let Some(entries) = self.run_memo.get(&(i, v)) {
            // Guards per (node, config) are few; a linear scan beats
            // cloning the guard into a hash key on every leaf.
            if let Some((_, b)) = entries.iter().find(|(g, _)| g == guard) {
                return Ok(Rc::clone(b));
            }
        }
        let model = self.model;
        let interner = &self.interner;
        let raw = enumerate_eval_cached(
            guard,
            self.fm_pruning,
            self.cache,
            self.deadline,
            |driver| {
                let mut node_cfg = NodeConfig::clone(interner.get(v));
                let outcome = run_handler(model, i, &mut node_cfg, driver)?;
                Ok((node_cfg, outcome))
            },
        )?;
        let recs: Vec<RunBranch> = raw
            .into_iter()
            .map(|b| {
                let (mut node_cfg, outcome) = b.result;
                if outcome == HandlerOutcome::AssertFailed {
                    node_cfg.error = true;
                }
                RunBranch {
                    weight_id: store.intern_weight(&b.weight),
                    weight: b.weight,
                    guard: b.guard,
                    outcome,
                    new_id: self.interner.id(node_cfg),
                }
            })
            .collect();
        let recs = Rc::new(recs);
        self.run_memo
            .entry((i, v))
            .or_default()
            .push((guard.clone(), Rc::clone(&recs)));
        Ok(recs)
    }

    /// The effect of `(Fwd, i)` on local configuration `v` — computed once
    /// per distinct `(i, v)`.
    fn fwd_info(&mut self, i: usize, v: u32) -> Result<Rc<FwdInfo>, ExactError> {
        if let Some(info) = self.fwd_memo.get(&(i, v)) {
            return Ok(Rc::clone(info));
        }
        let mut nc = NodeConfig::clone(self.interner.get(v));
        let (pkt, port) = nc.q_out.pop_front().expect("Fwd was enabled");
        let (dst, dst_port) = self
            .model
            .link_dest(i, port)
            .ok_or(SemanticsError::NoLinkOnPort { node: i, port })?;
        let info = if dst == i {
            // Self-link: drop silently on a full queue, like `deliver`.
            nc.q_in.push_back((pkt, dst_port));
            FwdInfo::Local {
                new_id: self.interner.id(nc),
            }
        } else {
            FwdInfo::Remote {
                new_id: self.interner.id(nc),
                dst,
                ctx: self.ctx_id(pkt, dst_port),
            }
        };
        let info = Rc::new(info);
        self.fwd_memo.insert((i, v), Rc::clone(&info));
        Ok(info)
    }

    /// Delivers context `ctx` to local configuration `u` (the G-Fwd push,
    /// with silent congestion drop on a full queue) — memoized.
    fn push(&mut self, u: u32, ctx: u32) -> u32 {
        if let Some(&u2) = self.push_memo.get(&(u, ctx)) {
            return u2;
        }
        let (pkt, port) = self.ctx_list[ctx as usize].clone();
        let mut nd = NodeConfig::clone(self.interner.get(u));
        nd.q_in.push_back((pkt, port));
        let u2 = self.interner.id(nd);
        self.push_memo.insert((u, ctx), u2);
        u2
    }
}

/// Merged per-tag transform results. Kept sorted by tag.
type Pieces<T> = Rc<Vec<(T, NodeRef)>>;

/// A [`transform`] leaf callback's result: tagged replacement pieces.
type LeafPieces<T> = Result<Vec<(T, NodeRef)>, ExactError>;

/// Memoized [`Ctx::run_branches`] expansions for one `(node, config)`
/// pair: the guard each entry was derived under, plus the shared branches.
type RunMemo = Vec<(Guard, Rc<Vec<RunBranch>>)>;

/// Tag of the inner pop-side transform of an upward remote forward: the
/// interned delivery context plus the popped node's `(sched, active)` flags.
type PopTag = (u32, (bool, bool));

/// Adds `piece` into the accumulator under `tag`, merging diagrams for
/// repeated tags.
fn merge_piece<T: Ord>(store: &mut Store, acc: &mut Vec<(T, NodeRef)>, tag: T, piece: NodeRef) {
    if piece == NodeRef::ZERO {
        return;
    }
    for (t, p) in acc.iter_mut() {
        if *t == tag {
            *p = store.add(*p, piece);
            return;
        }
    }
    acc.push((tag, piece));
}

/// The batched set-level rewrite: walks `r` down to the block starting at
/// variable `base`, calls `leaf` once per distinct `(id, below)` pair
/// stored there, and rebuilds the prefix **once per output tag** — the
/// shared structure above the block is never duplicated per configuration.
///
/// `leaf` returns `(tag, replacement)` pieces; pieces under equal tags are
/// summed. The result maps each tag to a complete diagram, **relative to
/// the weight-one representative of `r`** — the caller must rescale every
/// piece by `r`'s edge weight ([`Store::edge_weight`] / [`Store::rescale`]).
/// Memoizing per structure node is sound because every leaf is linear in
/// its suffix weight, and it lets proportional diagrams share one pass.
fn transform<T: Clone + Ord>(
    store: &mut Store,
    r: NodeRef,
    base: u32,
    leaf: &mut dyn FnMut(&mut Store, u32, NodeRef) -> LeafPieces<T>,
    memo: &mut FastMap<u32, Pieces<T>>,
) -> Result<Pieces<T>, ExactError> {
    if r == NodeRef::ZERO {
        return Ok(Rc::new(Vec::new()));
    }
    let key = store.structure(r);
    if let Some(p) = memo.get(&key) {
        return Ok(Rc::clone(p));
    }
    let unit = store.unit(r);
    let (var, lo, hi) = store
        .children(unit)
        .expect("diagram ends before the target block");
    let mut out: Vec<(T, NodeRef)>;
    if var >= base {
        out = Vec::new();
        for (id, below) in store.decode_block(unit) {
            for (tag, piece) in leaf(store, id, below)? {
                merge_piece(store, &mut out, tag, piece);
            }
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    } else {
        let lo_p = transform(store, lo, base, leaf, memo)?;
        let hi_p = transform(store, hi, base, leaf, memo)?;
        let lo_w = store.edge_weight(lo);
        let hi_w = store.edge_weight(hi);
        // Merge the two sorted piece lists, pairing equal tags and
        // reapplying each child's edge weight.
        out = Vec::new();
        let (mut x, mut y) = (lo_p.iter().peekable(), hi_p.iter().peekable());
        loop {
            let (tag, node) = match (x.peek(), y.peek()) {
                (None, None) => break,
                (Some((t, p)), None) => {
                    let pl = store.rescale(*p, lo_w);
                    let n = store.mk_node(var, pl, NodeRef::ZERO);
                    let t = t.clone();
                    x.next();
                    (t, n)
                }
                (None, Some((t, p))) => {
                    let ph = store.rescale(*p, hi_w);
                    let n = store.mk_node(var, NodeRef::ZERO, ph);
                    let t = t.clone();
                    y.next();
                    (t, n)
                }
                (Some((tx, px)), Some((ty, py))) => match tx.cmp(ty) {
                    std::cmp::Ordering::Less => {
                        let pl = store.rescale(*px, lo_w);
                        let n = store.mk_node(var, pl, NodeRef::ZERO);
                        let t = tx.clone();
                        x.next();
                        (t, n)
                    }
                    std::cmp::Ordering::Greater => {
                        let ph = store.rescale(*py, hi_w);
                        let n = store.mk_node(var, NodeRef::ZERO, ph);
                        let t = ty.clone();
                        y.next();
                        (t, n)
                    }
                    std::cmp::Ordering::Equal => {
                        let pl = store.rescale(*px, lo_w);
                        let ph = store.rescale(*py, hi_w);
                        let n = store.mk_node(var, pl, ph);
                        let t = tx.clone();
                        x.next();
                        y.next();
                        (t, n)
                    }
                },
            };
            if node != NodeRef::ZERO {
                out.push((tag, node));
            }
        }
    }
    let out = Rc::new(out);
    memo.insert(key, Rc::clone(&out));
    Ok(out)
}

/// Output tag of a `(Run, i)` transform: where the successor diagram goes.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum RunTag {
    /// Mass removed by a failed observation under this branch guard.
    Discard(Guard),
    /// A surviving successor: branch guard, node `i`'s new queue flags, and
    /// whether the handler asserted (error configurations are terminal).
    Go {
        guard: Guard,
        flags: (bool, bool),
        error: bool,
    },
}

/// Output tag of a `(Fwd, i)` transform: the successor's full flag vector
/// (the guard and scheduler state are unchanged by G-Fwd within one
/// action), packed two bits per node. Tags are cloned, compared, and hashed
/// once per leaf call, so they must stay allocation-free; the packing caps
/// the backend at [`MAX_NODES`].
type FwdTag = u128;

/// The largest model the diagram backend runs: [`pack_flags`] packs two
/// flag bits per node into a [`FwdTag`]. Larger models fall back to
/// enumeration (see the dispatch in [`crate::engine::analyze`]), and the
/// planner never routes them here.
pub(crate) const MAX_NODES: usize = FwdTag::BITS as usize / 2;

/// Packs a flag vector two bits per node: bit `2i` is `q_in` nonempty, bit
/// `2i + 1` is `q_out` nonempty.
fn pack_flags(flags: &[(bool, bool)]) -> u128 {
    let mut out = 0u128;
    for (i, &(q_in, q_out)) in flags.iter().enumerate() {
        out |= (q_in as u128) << (2 * i);
        out |= (q_out as u128) << (2 * i + 1);
    }
    out
}

/// Overwrites node `i`'s two bits in a packed flag vector.
fn set_flags(packed: u128, i: usize, (q_in, q_out): (bool, bool)) -> u128 {
    let cleared = packed & !(0b11u128 << (2 * i));
    cleared | ((q_in as u128) << (2 * i)) | ((q_out as u128) << (2 * i + 1))
}

/// Unpacks a flag vector for `k` nodes.
fn unpack_flags(packed: u128, k: usize) -> Vec<(bool, bool)> {
    (0..k)
        .map(|i| (packed >> (2 * i) & 1 == 1, packed >> (2 * i + 1) & 1 == 1))
        .collect()
}

/// Routes one successor diagram to the next frontier or the terminal
/// accumulator, merging by [`Store::add`].
#[allow(clippy::too_many_arguments)]
fn route(
    store: &mut Store,
    stats: &mut EngineStats,
    next: &mut HashMap<GroupKey, Vec<NodeRef>>,
    terminal: &mut HashMap<(u32, Guard), Vec<NodeRef>>,
    sched_state: u32,
    guard: Guard,
    flags: Vec<(bool, bool)>,
    has_error: bool,
    diagram: NodeRef,
) {
    if diagram == NodeRef::ZERO {
        return;
    }
    if has_error || flags.iter().all(|&(q_in, q_out)| !q_in && !q_out) {
        merge_into(store, stats, terminal, (sched_state, guard), diagram);
    } else {
        let key = GroupKey {
            sched_state,
            flags,
            guard,
        };
        merge_into(store, stats, next, key, diagram);
    }
}

/// Symmetry-aware routing: with a non-trivial automorphism group, every
/// represented configuration is replaced by its orbit representative before
/// it reaches the next frontier or the terminal accumulator, exactly as the
/// enumeration engine does — so `steps`/`expansions`/`peak_configs`/
/// `terminal_configs` stay pinned equal across backends. Canonicalization
/// permutes whole paths across node blocks, which a block-local transform
/// cannot express, so the piece is decoded, canonicalized per path, and
/// re-encoded (orbit-equal paths then merge in the canonical diagram).
/// Without a group this delegates to [`route`] untouched.
#[allow(clippy::too_many_arguments)]
fn canon_route(
    store: &mut Store,
    ctx: &mut Ctx<'_>,
    stats: &mut EngineStats,
    sym: Option<&SymmetryGroup>,
    next: &mut HashMap<GroupKey, Vec<NodeRef>>,
    terminal: &mut HashMap<(u32, Guard), Vec<NodeRef>>,
    sched_state: u32,
    guard: Guard,
    flags: Vec<(bool, bool)>,
    has_error: bool,
    diagram: NodeRef,
) {
    let Some(group) = sym else {
        route(
            store,
            stats,
            next,
            terminal,
            sched_state,
            guard,
            flags,
            has_error,
            diagram,
        );
        return;
    };
    if diagram == NodeRef::ZERO {
        return;
    }
    let mut paths = Vec::new();
    store.enumerate(diagram, &mut paths);
    for (ids, mass) in paths {
        let nodes = ids
            .iter()
            .map(|&id| Arc::clone(ctx.interner.get(id)))
            .collect();
        let mut cfg = GlobalConfig { sched_state, nodes };
        if group.canonicalize(&mut cfg) {
            stats.orbit_merges += 1;
        }
        let ids: Vec<u32> = cfg
            .nodes
            .iter()
            .map(|n| ctx.interner.id_shared(n))
            .collect();
        let mut d = store.terminal(mass);
        for (block, &id) in ids.iter().enumerate().rev() {
            d = store.encode(block as u32, id, d);
        }
        let flags: Vec<(bool, bool)> = ids.iter().map(|&id| ctx.interner.flag(id)).collect();
        let has_error = ids.iter().any(|&id| ctx.interner.errors[id as usize]);
        route(
            store,
            stats,
            next,
            terminal,
            cfg.sched_state,
            guard.clone(),
            flags,
            has_error,
            d,
        );
    }
}

fn merge_into<K: std::hash::Hash + Eq>(
    _store: &mut Store,
    stats: &mut EngineStats,
    map: &mut HashMap<K, Vec<NodeRef>>,
    key: K,
    diagram: NodeRef,
) {
    let bucket = map.entry(key).or_default();
    if !bucket.is_empty() {
        stats.merge_hits += 1;
    }
    bucket.push(diagram);
}

/// Sums a bucket of routed diagrams with a balanced binary reduction.
///
/// Pairwise folding rebuilds the shared spine once per piece; the balanced
/// tree rebuilds it O(log n) times, which is where the arena churn (and most
/// of the engine's wall-clock) goes on merge-heavy workloads. Exact rational
/// weights make every reduction order produce the same canonical diagram.
fn reduce_bucket(store: &mut Store, mut pieces: Vec<NodeRef>) -> NodeRef {
    while pieces.len() > 1 {
        let mut out = Vec::with_capacity(pieces.len().div_ceil(2));
        let mut it = pieces.chunks_exact(2);
        for pair in &mut it {
            out.push(store.add(pair[0], pair[1]));
        }
        if let [last] = it.remainder() {
            out.push(*last);
        }
        pieces = out;
    }
    pieces.pop().unwrap_or(NodeRef::ZERO)
}

/// Runs the ADD-backed exact engine to the termination fixpoint. Same
/// contract and error behavior as [`analyze`](crate::engine::analyze).
pub(crate) fn analyze_bdd(
    model: &Model,
    scheduler: &dyn Scheduler,
    opts: &ExactOptions,
) -> Result<Analysis, ExactError> {
    let mut stats = EngineStats::default();
    let k = model.num_nodes();
    let step_bound = model.num_steps.unwrap_or(opts.max_global_steps);

    let run_cache: Arc<FeasibilityCache> = opts.feasibility_cache.clone().unwrap_or_default();
    let (hits_before, misses_before) = run_cache.counts();

    // Same gate as the enumeration engine: canonicalize by orbit whenever
    // the scheduler commutes with node permutations, bound or symbolic.
    let sym = crate::engine::symmetry_for(model, scheduler);

    let mut store = Store::new();
    let mut ctx = Ctx {
        model,
        fm_pruning: opts.fm_pruning,
        cache: Some(&*run_cache),
        deadline: &opts.deadline,
        interner: Interner::default(),
        run_memo: HashMap::new(),
        fwd_memo: HashMap::new(),
        push_memo: HashMap::new(),
        ctx_list: Vec::new(),
        ctx_map: HashMap::new(),
    };

    // Initial distribution: identical enumeration to the enumeration engine.
    let mut initial: Vec<(Vec<Vec<Val>>, Rat, Guard)> =
        vec![(Vec::with_capacity(k), Rat::one(), Guard::top())];
    for node in 0..k {
        let prog = &model.programs[node];
        let node_branches = enumerate_eval_cached(
            &Guard::top(),
            opts.fm_pruning,
            ctx.cache,
            ctx.deadline,
            |driver| bayonet_net::eval_state_init(model, prog, driver),
        )?;
        let mut next = Vec::with_capacity(initial.len() * node_branches.len());
        for (states, mass, guard) in &initial {
            for b in &node_branches {
                let Some(combined) = guard.conjoin(&b.guard) else {
                    continue; // contradictory parameter assumptions
                };
                let mut states = states.clone();
                states.push(b.result.clone());
                next.push((states, mass * &b.weight, combined));
            }
        }
        initial = next;
    }

    let mut frontier: HashMap<GroupKey, Vec<NodeRef>> = HashMap::new();
    let mut terminal_acc: HashMap<(u32, Guard), Vec<NodeRef>> = HashMap::new();
    let mut discarded: HashMap<Guard, Rat> = HashMap::new();

    for (states, mass, guard) in initial {
        let mut cfg = initial_config(model, states)?;
        if mass.is_zero() {
            continue; // see the module docs: zero-weight branches drop
        }
        if let Some(group) = sym {
            if group.canonicalize(&mut cfg) {
                stats.orbit_merges += 1;
            }
        }
        let ids: Vec<u32> = cfg
            .nodes
            .iter()
            .map(|n| ctx.interner.id_shared(n))
            .collect();
        let mut diagram = store.terminal(mass);
        for (block, &id) in ids.iter().enumerate().rev() {
            diagram = store.encode(block as u32, id, diagram);
        }
        let flags: Vec<(bool, bool)> = ids.iter().map(|&id| ctx.interner.flag(id)).collect();
        route(
            &mut store,
            &mut stats,
            &mut frontier,
            &mut terminal_acc,
            cfg.sched_state,
            guard,
            flags,
            false,
            diagram,
        );
    }

    while !frontier.is_empty() {
        stats.steps += 1;
        let mut groups: Vec<(GroupKey, NodeRef)> = frontier
            .drain()
            .map(|(key, bucket)| (key, reduce_bucket(&mut store, bucket)))
            .collect();
        groups.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        let mut live: u64 = 0;
        for (_, d) in &groups {
            live += store.paths(*d);
        }
        if stats.steps > step_bound {
            let mut mass = Rat::zero();
            for (_, d) in &groups {
                mass += &store.mass(*d);
            }
            return Err(ExactError::Unterminated {
                live_configs: live as usize,
                mass: format!("{:.6}", mass.to_f64()),
            });
        }
        stats.peak_configs = stats.peak_configs.max(live as usize);
        if live as usize > opts.max_configs {
            return Err(ExactError::ConfigLimit(opts.max_configs));
        }
        if opts.deadline.expired() {
            return Err(ExactError::Interrupted {
                steps: stats.steps - 1,
                expansions: stats.expansions,
            });
        }
        stats.expansions += live;

        let mut next: HashMap<GroupKey, Vec<NodeRef>> = HashMap::new();
        for (key, root) in groups {
            if opts.deadline.expired() {
                return Err(ExactError::Interrupted {
                    steps: stats.steps - 1,
                    expansions: stats.expansions,
                });
            }
            let enabled = key.enabled();
            debug_assert!(!enabled.is_empty(), "frontier groups are non-terminal");
            for (action, p_sched, sched_next) in
                scheduler.distribution(key.sched_state, &enabled, k)
            {
                if p_sched.is_zero() {
                    continue; // see the module docs: zero-weight branches drop
                }
                match action {
                    Action::Run(i) => {
                        expand_run(
                            &mut store,
                            &mut ctx,
                            &mut stats,
                            sym,
                            &key,
                            root,
                            i,
                            &p_sched,
                            sched_next,
                            &mut next,
                            &mut terminal_acc,
                            &mut discarded,
                        )
                        .map_err(|e| e.at_progress(stats.steps - 1, stats.expansions))?;
                    }
                    Action::Fwd(i) => {
                        expand_fwd(
                            &mut store,
                            &mut ctx,
                            &mut stats,
                            sym,
                            &key,
                            root,
                            i,
                            &p_sched,
                            sched_next,
                            &mut next,
                            &mut terminal_acc,
                        )?;
                    }
                }
            }
        }
        frontier = next;
    }

    // Decode the terminal diagrams back into explicit configurations and
    // sort by the enumeration engine's canonical `(config, guard)` key.
    let mut terminals: Vec<(Guard, GlobalConfig, Rat)> = Vec::new();
    for ((sched_state, guard), bucket) in terminal_acc {
        let diagram = reduce_bucket(&mut store, bucket);
        let mut paths = Vec::new();
        store.enumerate(diagram, &mut paths);
        for (ids, mass) in paths {
            debug_assert_eq!(ids.len(), k);
            let nodes = ids
                .iter()
                .map(|&id| Arc::clone(ctx.interner.get(id)))
                .collect();
            terminals.push((guard.clone(), GlobalConfig { sched_state, nodes }, mass));
        }
    }
    terminals.sort_unstable_by(|(g1, c1, _), (g2, c2, _)| (c1, g1).cmp(&(c2, g2)));
    stats.terminal_configs = terminals.len();
    let (hits_after, misses_after) = run_cache.counts();
    stats.feasibility_hits = hits_after - hits_before;
    stats.feasibility_misses = misses_after - misses_before;
    let counters = store.counters();
    stats.bdd_nodes = counters.nodes;
    stats.bdd_unique_hits = counters.unique_hits;
    stats.bdd_apply_cache_hits = counters.apply_cache_hits;
    let mut discarded: Vec<(Guard, Rat)> = discarded.into_iter().collect();
    discarded.sort_unstable_by(|(g1, _), (g2, _)| g1.cmp(g2));
    Ok(Analysis {
        terminals: terminals.into_iter().map(|(g, c, m)| (c, g, m)).collect(),
        discarded,
        stats,
    })
}

/// Applies `(Run, i)` with scheduler weight `p_sched` to a whole group in
/// one batched transform.
#[allow(clippy::too_many_arguments)]
fn expand_run(
    store: &mut Store,
    ctx: &mut Ctx<'_>,
    stats: &mut EngineStats,
    sym: Option<&SymmetryGroup>,
    key: &GroupKey,
    root: NodeRef,
    i: usize,
    p_sched: &Rat,
    sched_next: u32,
    next: &mut HashMap<GroupKey, Vec<NodeRef>>,
    terminal_acc: &mut HashMap<(u32, Guard), Vec<NodeRef>>,
    discarded: &mut HashMap<Guard, Rat>,
) -> Result<(), ExactError> {
    let base = i as u32 * BLOCK_BITS;
    let mut memo = FastMap::default();
    let guard = &key.guard;
    let p_id = store.intern_weight(p_sched);
    let pieces = {
        let ctx = &mut *ctx;
        transform::<RunTag>(
            store,
            root,
            base,
            &mut |store, v, below| {
                let branches = ctx.run_branches(store, i, v, guard)?;
                let mut out: Vec<(RunTag, NodeRef)> = Vec::new();
                for b in branches.iter() {
                    if b.weight.is_zero() {
                        continue; // see the module docs
                    }
                    // The scheduler weight is folded into the branch weight
                    // so the diagram is scaled once, not twice (exact
                    // rational products are associative, so the posterior
                    // is unchanged bit for bit). All weight arithmetic is
                    // on interned ids: no rational is re-hashed per leaf.
                    let w = store.mul_weights(b.weight_id, p_id);
                    match b.outcome {
                        HandlerOutcome::ObserveFailed => {
                            // Keep the restricted sub-diagram; its mass is
                            // taken after the prefix is rebuilt so shared
                            // suffixes are weighted by their multiplicity.
                            let piece = store.scale_id(below, w);
                            merge_piece(store, &mut out, RunTag::Discard(b.guard.clone()), piece);
                        }
                        HandlerOutcome::Completed | HandlerOutcome::AssertFailed => {
                            let scaled = store.scale_id(below, w);
                            let piece = store.encode(i as u32, b.new_id, scaled);
                            let tag = RunTag::Go {
                                guard: b.guard.clone(),
                                flags: ctx.interner.flag(b.new_id),
                                error: ctx.interner.errors[b.new_id as usize],
                            };
                            merge_piece(store, &mut out, tag, piece);
                        }
                    }
                }
                Ok(out)
            },
            &mut memo,
        )?
    };
    let root_w = store.edge_weight(root);
    for (tag, piece) in pieces.iter() {
        let piece = store.rescale(*piece, root_w);
        match tag {
            RunTag::Discard(g) => {
                let lost = store.mass(piece);
                *discarded.entry(g.clone()).or_insert_with(Rat::zero) += &lost;
            }
            RunTag::Go {
                guard,
                flags: node_flags,
                error,
            } => {
                let mut flags = key.flags.clone();
                flags[i] = *node_flags;
                canon_route(
                    store,
                    ctx,
                    stats,
                    sym,
                    next,
                    terminal_acc,
                    sched_next,
                    guard.clone(),
                    flags,
                    *error,
                    piece,
                );
            }
        }
    }
    Ok(())
}

/// Applies `(Fwd, i)` with scheduler weight `p_sched` to a whole group.
/// Destinations may differ per local configuration (different head-of-queue
/// ports), so the transform runs once per destination node.
#[allow(clippy::too_many_arguments)]
fn expand_fwd(
    store: &mut Store,
    ctx: &mut Ctx<'_>,
    stats: &mut EngineStats,
    sym: Option<&SymmetryGroup>,
    key: &GroupKey,
    root: NodeRef,
    i: usize,
    p_sched: &Rat,
    sched_next: u32,
    next: &mut HashMap<GroupKey, Vec<NodeRef>>,
    terminal_acc: &mut HashMap<(u32, Guard), Vec<NodeRef>>,
) -> Result<(), ExactError> {
    let base_i = i as u32 * BLOCK_BITS;
    let k = key.flags.len();
    let base_flags = pack_flags(&key.flags);
    let p_id = store.intern_weight(p_sched);
    let mut dsts: BTreeSet<usize> = BTreeSet::new();
    for v in store.ids_at_block(root, i as u32) {
        dsts.insert(ctx.fwd_info(i, v)?.dst(i));
    }
    for dst in dsts {
        let base_d = dst as u32 * BLOCK_BITS;
        let pieces = if dst == i {
            // Self-link: one block rewrite.
            let mut memo = FastMap::default();
            let ctx = &mut *ctx;
            transform::<FwdTag>(
                store,
                root,
                base_i,
                &mut |store, v, below| {
                    let info = ctx.fwd_info(i, v)?;
                    let FwdInfo::Local { new_id } = &*info else {
                        return Ok(Vec::new()); // another destination's bucket
                    };
                    // The scheduler weight is applied at the suffix, once
                    // per distinct suffix, so the prefix above is rebuilt
                    // exactly once per action.
                    let below = store.scale_id(below, p_id);
                    let piece = store.encode(i as u32, *new_id, below);
                    let flags = set_flags(base_flags, i, ctx.interner.flag(*new_id));
                    Ok(vec![(flags, piece)])
                },
                &mut memo,
            )?
        } else if dst > i {
            // Pop at block i, then push at the deeper block dst: the inner
            // transform runs inside each popped suffix. Inner memos are
            // shared per delivery context so suffixes shared across sender
            // configurations are rewritten once.
            let mut memo = FastMap::default();
            let mut inner_memos: FastMap<u32, FastMap<u32, Pieces<(bool, bool)>>> =
                FastMap::default();
            let ctx = &mut *ctx;
            transform::<FwdTag>(
                store,
                root,
                base_i,
                &mut |store, v, below| {
                    let info = ctx.fwd_info(i, v)?;
                    let FwdInfo::Remote {
                        new_id,
                        dst: d,
                        ctx: delivery,
                    } = &*info
                    else {
                        return Ok(Vec::new());
                    };
                    if *d != dst {
                        return Ok(Vec::new()); // another destination's bucket
                    }
                    let (new_id, delivery) = (*new_id, *delivery);
                    let inner_memo = inner_memos.entry(delivery).or_default();
                    let arrived = transform::<(bool, bool)>(
                        store,
                        below,
                        base_d,
                        &mut |store, u, below2| {
                            let u2 = ctx.push(u, delivery);
                            let below2 = store.scale_id(below2, p_id);
                            let piece = store.encode(dst as u32, u2, below2);
                            Ok(vec![(ctx.interner.flag(u2), piece)])
                        },
                        inner_memo,
                    )?;
                    let mut out: Vec<(FwdTag, NodeRef)> = Vec::new();
                    let sender = set_flags(base_flags, i, ctx.interner.flag(new_id));
                    let below_w = store.edge_weight(below);
                    for (dst_flags, piece) in arrived.iter() {
                        let piece = store.rescale(*piece, below_w);
                        let topped = store.encode(i as u32, new_id, piece);
                        let flags = set_flags(sender, dst, *dst_flags);
                        merge_piece(store, &mut out, flags, topped);
                    }
                    Ok(out)
                },
                &mut memo,
            )?
        } else {
            // dst < i: the push happens above the pop. The outer transform
            // rewrites block dst; its leaf first rewrites block i inside
            // the suffix, bubbling the delivery context up as a tag. The
            // inner memo is shared across receivers — the pop result is
            // independent of the receiving node's configuration.
            let mut memo = FastMap::default();
            let mut inner_memo: FastMap<u32, Pieces<PopTag>> = FastMap::default();
            let ctx = &mut *ctx;
            transform::<FwdTag>(
                store,
                root,
                base_d,
                &mut |store, u, below| {
                    let popped = transform::<PopTag>(
                        store,
                        below,
                        base_i,
                        &mut |store, v, below2| {
                            let info = ctx.fwd_info(i, v)?;
                            let FwdInfo::Remote {
                                new_id,
                                dst: d,
                                ctx: delivery,
                            } = &*info
                            else {
                                return Ok(Vec::new());
                            };
                            if *d != dst {
                                return Ok(Vec::new());
                            }
                            let below2 = store.scale_id(below2, p_id);
                            let piece = store.encode(i as u32, *new_id, below2);
                            Ok(vec![((*delivery, ctx.interner.flag(*new_id)), piece)])
                        },
                        &mut inner_memo,
                    )?;
                    let mut out: Vec<(FwdTag, NodeRef)> = Vec::new();
                    let below_w = store.edge_weight(below);
                    for ((delivery, i_flags), piece) in popped.iter() {
                        let piece = store.rescale(*piece, below_w);
                        let u2 = ctx.push(u, *delivery);
                        let topped = store.encode(dst as u32, u2, piece);
                        let flags = set_flags(
                            set_flags(base_flags, dst, ctx.interner.flag(u2)),
                            i,
                            *i_flags,
                        );
                        merge_piece(store, &mut out, flags, topped);
                    }
                    Ok(out)
                },
                &mut memo,
            )?
        };
        let root_w = store.edge_weight(root);
        for (flags, piece) in pieces.iter() {
            let piece = store.rescale(*piece, root_w);
            canon_route(
                store,
                ctx,
                stats,
                sym,
                next,
                terminal_acc,
                sched_next,
                key.guard.clone(),
                unpack_flags(*flags, k),
                false,
                piece,
            );
        }
    }
    Ok(())
}
