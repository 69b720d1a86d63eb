//! Site-repeat compression for the PLF kernels.
//!
//! Distinct alignment *patterns* (global column dedup, done in
//! `phylo-bio`) are not the end of redundancy: below any given inner
//! node, many sites induce the *same* character pattern over just the
//! subtree's tips, so their conditional likelihoods at that node are
//! identical. BEAGLE and libpll exploit this as "site repeats": compute
//! each unique per-node repeat class once in `newview`, then expand the
//! result to all member sites.
//!
//! The classes are built incrementally bottom-up, which is what makes
//! detection cheap: a site's class at a node is determined entirely by
//! the pair of its children's class ids — a tip child contributes its
//! 4-bit character code, an inner child the site's class id in that
//! child's own [`RepeatTable`]. One pass per node over `(left class,
//! right class)` pairs assigns dense ids in first-occurrence order.
//! When `classes(left) × classes(right)` is small (every tip/tip node
//! and most tip/inner ones) the pair indexes a dense id array;
//! otherwise an open-addressing map keyed by the packed pair serves.
//! Both live in a reusable `ClassIdMap` whose entries carry a build
//! generation, so a rebuild starts from an empty map without clearing
//! it, and tables are rebuilt in place over their old capacity. A
//! node's classes depend only on the set of tips below it, so each
//! node caches its recent tables by tip set (`RepeatTables`).
//!
//! # Break-even and saturation
//!
//! `Auto` compresses a node iff `classes ≤ sites · f`, where `f` is
//! the break-even fraction of the `cost.rs` byte model
//! ([`crate::cost::repeat_break_even`]): each class costs its kernel
//! work plus the gather of both children's representatives, and each
//! site still pays the expansion copy and its share of the table
//! build. `On` compresses whenever `classes < sites`.
//! [`SiteRepeats::class_limit`] is that largest compressing class
//! count.
//!
//! A parent's classes refine both children's, so `classes(parent) ≥
//! max classes(child)`: once a node exceeds its mode's class limit, no
//! ancestor in that orientation can compress either. Such a node gets
//! a *saturated* table — the site count only, no per-site vectors —
//! and every table built on top of it is saturated without a pass over
//! the sites. A build that crosses the limit mid-pass stops there and
//! saturates too. Saturation changes no compress decision under `On`
//! or `Auto`; it only skips builds whose answer is already known.
//!
//! # Bit-identity contract
//!
//! Compression must be invisible to every downstream consumer:
//!
//! * **Values**: sites of one class have bit-identical child inputs
//!   (induction over the tree; base case tips), and every kernel is a
//!   deterministic per-site function of its inputs, so computing the
//!   class once and copying the 128-byte site to each member yields the
//!   exact bytes the uncompressed kernel would have produced.
//! * **Per-site scaling counters**: a site's output counter is `(own
//!   rescale bump) + (sum of child counters)`; both are class
//!   functions, so the expanded counter array is bit-identical too.
//! * **The global `core.scaling.events` metric**: the kernel's
//!   [`crate::scaling::scale_site`] fires once per *class*, so the
//!   engine re-weights it by multiplicity — adding `own_bump_c ·
//!   (mult_c − 1)` per class — keeping the process-wide total equal to
//!   the uncompressed run's. See
//!   [`RepeatTable::extra_scaling_events`].
//!
//! Because expansion materializes the full per-site CLA, `evaluate_*`
//! and `derivative_sum_*` run unchanged over identical inputs: the
//! whole likelihood, not just the CLA, is bit-identical with
//! compression on or off.

use crate::kernels::Kernels;
use crate::layout::{site_range, EigenBasis, FusedPmat, Lut16x16};
use crate::{AlignedVec, SITE_STRIDE};
use phylo_tree::NodeId;

/// Whether engines compress repeated sites, gated per
/// [`crate::EngineConfig`] and overridable process-wide through the
/// `PHYLOMIC_SITE_REPEATS` environment variable (mirroring
/// `PHYLOMIC_KERNELS`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SiteRepeats {
    /// Never compress: the uncompressed reference path.
    Off,
    /// Compress whenever a node has any repeated site at all.
    On,
    /// Compress only where profitable: the kernel saving must clear the
    /// gather, expand and table-build overhead (see
    /// [`RepeatTable::profitable`]).
    Auto,
}

impl SiteRepeats {
    /// Every variant, in parse/display order.
    pub const ALL: [SiteRepeats; 3] = [SiteRepeats::Off, SiteRepeats::On, SiteRepeats::Auto];

    /// The `PHYLOMIC_SITE_REPEATS` environment override, parsed once
    /// per process. Returns `None` when the variable is unset or empty.
    ///
    /// # Panics
    /// Panics on an unparseable value: a mistyped mode must not
    /// silently fall back to the default.
    pub fn env_override() -> Option<SiteRepeats> {
        static OVERRIDE: std::sync::OnceLock<Option<SiteRepeats>> = std::sync::OnceLock::new();
        *OVERRIDE.get_or_init(|| {
            let v = std::env::var("PHYLOMIC_SITE_REPEATS").ok()?;
            let v = v.trim();
            if v.is_empty() {
                return None;
            }
            Some(
                v.parse().unwrap_or_else(|e: SiteRepeatsParseError| {
                    panic!("PHYLOMIC_SITE_REPEATS: {e}")
                }),
            )
        })
    }

    /// The mode an engine configured with `self` actually runs:
    /// `PHYLOMIC_SITE_REPEATS` (when set) wins.
    pub fn effective(self) -> SiteRepeats {
        Self::env_override().unwrap_or(self)
    }

    /// Whether this mode builds repeat tables at all.
    pub fn enabled(self) -> bool {
        self != SiteRepeats::Off
    }

    /// The largest class count at which this mode compresses a node of
    /// `sites` sites — also its saturation limit (see the module docs):
    /// `Off` none, `On` one below the site count, `Auto` the cost
    /// model's break-even ([`crate::cost::repeat_break_even_classes`]).
    pub fn class_limit(self, sites: usize) -> usize {
        match self {
            SiteRepeats::Off => 0,
            SiteRepeats::On => sites.saturating_sub(1),
            SiteRepeats::Auto => crate::cost::repeat_break_even_classes(sites),
        }
    }
}

/// An unrecognized site-repeats mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteRepeatsParseError(String);

impl std::fmt::Display for SiteRepeatsParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown site-repeats mode {:?} (expected off, on or auto)",
            self.0
        )
    }
}

impl std::error::Error for SiteRepeatsParseError {}

impl std::str::FromStr for SiteRepeats {
    type Err = SiteRepeatsParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(SiteRepeats::Off),
            "on" => Ok(SiteRepeats::On),
            "auto" => Ok(SiteRepeats::Auto),
            other => Err(SiteRepeatsParseError(other.to_string())),
        }
    }
}

impl std::fmt::Display for SiteRepeats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SiteRepeats::Off => "off",
            SiteRepeats::On => "on",
            SiteRepeats::Auto => "auto",
        })
    }
}

/// One child's per-site class ids for repeat-class construction: a tip
/// contributes its character codes, an inner node the site→class map
/// of its own table.
#[derive(Clone, Copy)]
pub enum ClassSource<'a> {
    /// Tip child: 4-bit ambiguity codes, one per site.
    Tip(&'a [u8]),
    /// Inner child: the child's repeat table (must cover the same
    /// sites).
    Inner(&'a RepeatTable),
}

impl ClassSource<'_> {
    fn len(&self) -> usize {
        match self {
            ClassSource::Tip(codes) => codes.len(),
            ClassSource::Inner(table) => table.num_sites(),
        }
    }

    /// An exclusive upper bound on the class ids this source yields.
    fn id_bound(&self) -> usize {
        match self {
            // The OR of all codes bounds their maximum; unlike `max`,
            // the reduction vectorizes.
            ClassSource::Tip(codes) => usize::from(codes.iter().fold(0, |acc, &c| acc | c)) + 1,
            ClassSource::Inner(table) => table.num_classes(),
        }
    }

    /// Whether this source alone proves that a table built on it has
    /// more than `limit` classes (an inner child already above it).
    fn exceeds(&self, limit: usize) -> bool {
        match self {
            ClassSource::Tip(_) => false,
            ClassSource::Inner(table) => table.saturated || table.num_classes() > limit,
        }
    }
}

/// Largest `id_bound(left) × id_bound(right)` product that builds
/// through the dense id array (512 KiB of entries: a tip against an
/// inner child of up to 4096 classes); larger products go through the
/// open-addressing map.
const DENSE_MAX: usize = 1 << 16;

/// The generation half of a [`ClassIdMap`] entry.
const TAG_MASK: u64 = !0 << 32;

/// Reusable scratch of [`RepeatTable::rebuild`]: the `(left, right)`
/// pair → class id map, dense or open-addressing, and the per-class
/// staging of one build. Every map entry holds its build's generation
/// in the high 32 bits and the class id in the low 32, so entries left
/// by earlier builds read as empty and a build never clears the map.
#[derive(Debug)]
pub(crate) struct ClassIdMap {
    /// Odd multiplier of the open-addressing hash, drawn per map: the
    /// pairs derive from the input alignment, and a fixed multiplier
    /// would let a crafted alignment pile its pairs onto one probe
    /// chain. Ids stay in first-occurrence order whatever it is.
    multiplier: u64,
    generation: u32,
    /// Entry of pair `(l, r)` at `l · width + r`.
    dense: Vec<u64>,
    /// Open-addressing slots `[packed pair, generation | id]`.
    hashed: Vec<[u64; 2]>,
    /// First site of each class.
    repr: Vec<u32>,
    /// Member count of each class.
    mult: Vec<u32>,
}

impl Default for ClassIdMap {
    fn default() -> Self {
        use std::hash::BuildHasher;
        let seed = std::collections::hash_map::RandomState::new().hash_one(0u64);
        ClassIdMap {
            multiplier: seed | 1,
            generation: 0,
            dense: Vec::new(),
            hashed: Vec::new(),
            repr: Vec::new(),
            mult: Vec::new(),
        }
    }
}

impl ClassIdMap {
    /// Opens a new build generation and returns its entry tag.
    fn next_tag(&mut self) -> u64 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Generation 0 marks empty entries: on wrap-around, stale
            // entries could alias the new builds, so clear them once.
            self.dense.fill(0);
            self.hashed.fill([0; 2]);
            self.generation = 1;
        }
        u64::from(self.generation) << 32
    }
}

/// The pair → id lookup of one build, monomorphised per map kind.
trait PairIds {
    /// The id of pair `(l, r)`, inserting `next` when the pair is new.
    fn id_or_insert(&mut self, l: u32, r: u32, next: u32) -> u32;
}

/// Dense id array over `id_bound(left) × id_bound(right)` pairs.
struct DenseIds<'a> {
    entries: &'a mut [u64],
    width: usize,
    tag: u64,
}

impl PairIds for DenseIds<'_> {
    #[inline]
    fn id_or_insert(&mut self, l: u32, r: u32, next: u32) -> u32 {
        let e = &mut self.entries[l as usize * self.width + r as usize];
        if *e & TAG_MASK == self.tag {
            *e as u32
        } else {
            *e = self.tag | u64::from(next);
            next
        }
    }
}

/// Linear-probing map keyed by the packed pair under a multiply-shift
/// hash; `slots.len()` is a power of two at least twice the number of
/// pairs a build may insert, so probes always end.
struct HashedIds<'a> {
    slots: &'a mut [[u64; 2]],
    multiplier: u64,
    shift: u32,
    tag: u64,
}

impl PairIds for HashedIds<'_> {
    #[inline]
    fn id_or_insert(&mut self, l: u32, r: u32, next: u32) -> u32 {
        let key = (u64::from(l) << 32) | u64::from(r);
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(self.multiplier) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            if slot[1] & TAG_MASK != self.tag {
                *slot = [key, self.tag | u64::from(next)];
                return next;
            }
            if slot[0] == key {
                return slot[1] as u32;
            }
            i = (i + 1) & mask;
        }
    }
}

/// The buffers one build pass fills, and the class count it may reach.
struct Pass<'a> {
    site2class: &'a mut [u32],
    repr: &'a mut [u32],
    mult: &'a mut [u32],
    limit: usize,
}

impl Pass<'_> {
    /// Runs the pass monomorphised over the two sources' id types.
    fn run<M: PairIds>(
        &mut self,
        left: ClassSource<'_>,
        right: ClassSource<'_>,
        ids: &mut M,
    ) -> Option<usize> {
        match (left, right) {
            (ClassSource::Tip(l), ClassSource::Tip(r)) => self.assign(l, r, ids),
            (ClassSource::Tip(l), ClassSource::Inner(r)) => self.assign(l, &r.site2class, ids),
            (ClassSource::Inner(l), ClassSource::Tip(r)) => self.assign(&l.site2class, r, ids),
            (ClassSource::Inner(l), ClassSource::Inner(r)) => {
                self.assign(&l.site2class, &r.site2class, ids)
            }
        }
    }

    /// Gives each site the id of its `(left, right)` pair, ids dense in
    /// first-occurrence order, recording each class's first site and
    /// member count. Returns the class count, or `None` as soon as it
    /// would exceed `limit`.
    #[inline]
    fn assign<A, B, M>(&mut self, left: &[A], right: &[B], ids: &mut M) -> Option<usize>
    where
        A: Copy + Into<u32>,
        B: Copy + Into<u32>,
        M: PairIds,
    {
        let mut classes = 0u32;
        let pairs = left.iter().zip(right);
        for (i, ((&l, &r), s2c)) in pairs.zip(self.site2class.iter_mut()).enumerate() {
            let id = ids.id_or_insert(l.into(), r.into(), classes);
            if id == classes {
                if id as usize == self.limit {
                    return None;
                }
                self.repr[id as usize] = i as u32;
                self.mult[id as usize] = 1;
                classes += 1;
            } else {
                self.mult[id as usize] += 1;
            }
            *s2c = id;
        }
        Some(classes as usize)
    }
}

/// Per-node repeat index table: the partition of this engine slice's
/// sites into classes with identical induced subtree patterns at one
/// inner node (for its current orientation). A *saturated* table keeps
/// only its site count (see the module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RepeatTable {
    /// Number of sites covered.
    sites: usize,
    /// More classes than the build's limit: no per-site vectors.
    saturated: bool,
    /// Dense class id per site, ids assigned in first-occurrence order.
    site2class: Vec<u32>,
    /// Representative (first-occurrence) site per class.
    repr: Vec<u32>,
    /// Number of member sites per class.
    mult: Vec<u32>,
}

impl RepeatTable {
    /// Builds the full table for a node from its two children's class
    /// sources (no class limit, fresh scratch).
    pub fn build(left: ClassSource<'_>, right: ClassSource<'_>) -> Self {
        let mut table = RepeatTable::default();
        table.rebuild(left, right, usize::MAX, &mut ClassIdMap::default());
        table
    }

    /// Rebuilds this table in place from its children's class sources,
    /// reusing its vectors' capacity and `ids` as scratch. A table that
    /// would get more than `limit` classes is left saturated instead —
    /// without a pass over the sites when an inner child already
    /// exceeds `limit` (counted in `core.repeats.saturated_skips`).
    /// Every pass that runs is a `repeats.build` span and counts in
    /// `core.repeats.table_builds`.
    pub(crate) fn rebuild(
        &mut self,
        left: ClassSource<'_>,
        right: ClassSource<'_>,
        limit: usize,
        ids: &mut ClassIdMap,
    ) {
        self.rebuild_with(left, right, limit, ids, DENSE_MAX);
    }

    /// [`RepeatTable::rebuild`] with the dense path taken up to
    /// `dense_max` pairs (tests force either path through it).
    fn rebuild_with(
        &mut self,
        left: ClassSource<'_>,
        right: ClassSource<'_>,
        limit: usize,
        ids: &mut ClassIdMap,
        dense_max: usize,
    ) {
        let n = left.len();
        debug_assert_eq!(n, right.len(), "children cover different site ranges");
        if left.exceeds(limit) || right.exceeds(limit) {
            saturated_skips().add(1);
            self.saturate(n);
            return;
        }
        let _span = crate::span::enter("repeats.build");
        table_builds().add(1);
        let (bound_l, bound_r) = (left.id_bound(), right.id_bound());
        let tag = ids.next_tag();
        self.site2class.resize(n, 0);
        if ids.repr.len() < n {
            ids.repr.resize(n, 0);
            ids.mult.resize(n, 0);
        }
        let ClassIdMap {
            multiplier,
            dense,
            hashed,
            repr,
            mult,
            ..
        } = ids;
        let mut pass = Pass {
            site2class: &mut self.site2class,
            repr,
            mult,
            limit,
        };
        let pairs = bound_l.saturating_mul(bound_r);
        let classes = if pairs <= dense_max {
            if dense.len() < pairs {
                dense.resize(pairs, 0);
            }
            let mut map = DenseIds {
                entries: dense,
                width: bound_r,
                tag,
            };
            pass.run(left, right, &mut map)
        } else {
            let cap = (2 * n.min(limit.saturating_add(1)))
                .next_power_of_two()
                .max(16);
            if hashed.len() < cap {
                hashed.resize(cap, [0; 2]);
            }
            let mut map = HashedIds {
                slots: &mut hashed[..cap],
                multiplier: *multiplier,
                shift: 64 - cap.trailing_zeros(),
                tag,
            };
            pass.run(left, right, &mut map)
        };
        match classes {
            Some(c) => {
                self.sites = n;
                self.saturated = false;
                self.repr.clear();
                self.repr.extend_from_slice(&repr[..c]);
                self.mult.clear();
                self.mult.extend_from_slice(&mult[..c]);
            }
            None => self.saturate(n),
        }
    }

    /// Turns this table into a saturated one over `sites` sites,
    /// keeping its vectors' capacity.
    fn saturate(&mut self, sites: usize) {
        self.sites = sites;
        self.saturated = true;
        self.site2class.clear();
        self.repr.clear();
        self.mult.clear();
    }

    /// Whether the table is saturated: it exceeded its build's class
    /// limit, so neither it nor any table built on it compresses.
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Number of sites covered.
    pub fn num_sites(&self) -> usize {
        self.sites
    }

    /// Number of distinct repeat classes. A saturated table does not
    /// know its count and reports one class per site.
    pub fn num_classes(&self) -> usize {
        if self.saturated {
            self.sites
        } else {
            self.repr.len()
        }
    }

    /// Dense class id per site (empty when saturated).
    pub fn site2class(&self) -> &[u32] {
        &self.site2class
    }

    /// Representative (first-occurrence) site per class (empty when
    /// saturated).
    pub fn repr_sites(&self) -> &[u32] {
        &self.repr
    }

    /// Member count per class (empty when saturated).
    pub fn multiplicities(&self) -> &[u32] {
        &self.mult
    }

    /// `classes / sites`: 1.0 means no repeats, small means highly
    /// compressible.
    pub fn ratio(&self) -> f64 {
        if self.num_sites() == 0 {
            1.0
        } else {
            self.num_classes() as f64 / self.num_sites() as f64
        }
    }

    /// Whether compressing this node pays for everything compression
    /// costs: `classes ≤` [`crate::cost::repeat_break_even_classes`]`(sites)`,
    /// the break-even of the kernel work saved against the gather,
    /// expansion and table-build traffic spent (weighted by the
    /// measured bandwidths on a calibrated host).
    pub fn profitable(&self) -> bool {
        self.compresses(SiteRepeats::Auto)
    }

    /// Whether a node with this table runs compressed under `mode`:
    /// at most [`SiteRepeats::class_limit`] classes.
    pub fn compresses(&self, mode: SiteRepeats) -> bool {
        !self.saturated && self.sites > 0 && self.num_classes() <= mode.class_limit(self.sites)
    }

    /// [`RepeatTable::compresses`] for an engine decision site: when
    /// the mode actually consults [`RepeatTable::profitable`] (`Auto`),
    /// the outcome is counted in the
    /// `core.repeats.profitable_{hits,skips}` metrics, so traces show
    /// how often the cost model accepts vs rejects compression — the
    /// old global ratio could not distinguish "no repeats" from
    /// "repeats judged unprofitable".
    pub(crate) fn compresses_counted(&self, mode: SiteRepeats) -> bool {
        if mode == SiteRepeats::Auto {
            if self.profitable() {
                profitable_hits().add(1);
                true
            } else {
                profitable_skips().add(1);
                false
            }
        } else {
            self.compresses(mode)
        }
    }

    /// Gathers tip codes at the class representatives into `out`
    /// (resized to `num_classes`).
    pub fn gather_codes(&self, codes: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.extend(self.repr.iter().map(|&s| codes[s as usize]));
    }

    /// Gathers CLA sites and scaling counters at the class
    /// representatives into the leading `num_classes` entries of
    /// `out_v`/`out_s`.
    pub fn gather_sites(
        &self,
        values: &[f64],
        scale: &[u32],
        out_v: &mut [f64],
        out_s: &mut [u32],
    ) {
        for (c, &s) in self.repr.iter().enumerate() {
            let s = s as usize;
            out_v[site_range(c)].copy_from_slice(&values[site_range(s)]);
            out_s[c] = scale[s];
        }
    }

    /// Expands class-indexed kernel output (`num_classes` sites in
    /// `comp_v`/`comp_s`) to the full per-site buffers. Pure 128-byte
    /// copies: expanded CLAs are bit-identical to the uncompressed
    /// kernel's output (see the module docs for why).
    pub fn expand(&self, comp_v: &[f64], comp_s: &[u32], out_v: &mut [f64], out_s: &mut [u32]) {
        for (i, &c) in self.site2class.iter().enumerate() {
            let c = c as usize;
            out_v[site_range(i)].copy_from_slice(&comp_v[site_range(c)]);
            out_s[i] = comp_s[c];
        }
    }

    /// The multiplicity-weighted correction for the global
    /// `core.scaling.events` metric: the kernel rescaled each class at
    /// most once, so the engine adds `own_bump_c · (mult_c − 1)` per
    /// class, where `own_bump_c = comp_s[c] − input_scale_sum[c]` (the
    /// class's own rescale bump net of the child counters it inherited,
    /// always 0 or 1). `input_scale_sum` is the per-class sum of the
    /// gathered child counters (all zeros for tip-tip nodes).
    pub fn extra_scaling_events(&self, comp_s: &[u32], input_scale_sum: &[u32]) -> u64 {
        let mut extra = 0u64;
        for (c, &m) in self.mult.iter().enumerate() {
            let own = comp_s[c] - input_scale_sum[c];
            debug_assert!(own <= 1, "per-class rescale bump must be 0 or 1");
            extra += u64::from(own) * u64::from(m - 1);
        }
        extra
    }
}

/// Repeat tables each inner node keeps, one per recently seen tip set:
/// a node has three orientations, and branch smoothing and SPR trials
/// move the virtual root back and forth across it.
const TABLES_PER_NODE: usize = 3;

/// One cached table and the tip set it partitions the sites by.
#[derive(Clone, Debug, Default)]
struct CachedTable {
    /// Bitset of the tree tip ids below the node (empty: never built).
    tips: Vec<u64>,
    /// Tip-binding epoch the table was built under.
    epoch: u64,
    /// Clock value of the last use; the least recently used is evicted.
    last_use: u64,
    table: RepeatTable,
}

/// A child of the node whose table [`RepeatTables::ensure`] provides.
#[derive(Clone, Copy)]
pub(crate) enum Child<'a> {
    /// Tree tip with this id and these codes.
    Tip(NodeId, &'a [u8]),
    /// Inner node with this index, its own table already ensured.
    Inner(usize),
}

/// The repeat tables of one engine's inner nodes.
///
/// Two sites share a class at a node iff their codes agree at every
/// tip below it — however that subtree is resolved — so a table is a
/// function of the node's tip set and the tip binding alone. Each node
/// therefore caches its last [`TABLES_PER_NODE`] tables by tip set:
/// moving the virtual root back across a node, or undoing an SPR
/// trial, finds the table already built, and a rebuilt child never
/// invalidates its ancestors' tables. Branch lengths and the model
/// never enter the key, so Newton branch smoothing reuses every table.
#[derive(Debug)]
pub(crate) struct RepeatTables {
    /// `u64` words per tip set.
    words: usize,
    nodes: Vec<[CachedTable; TABLES_PER_NODE]>,
    /// Slot in use for each node's current orientation.
    current: Vec<usize>,
    clock: u64,
    ids: ClassIdMap,
    /// Scratch tip set.
    tips: Vec<u64>,
}

impl RepeatTables {
    /// Empty tables for `num_inner` nodes over `num_taxa` tips.
    pub(crate) fn new(num_taxa: usize, num_inner: usize) -> Self {
        RepeatTables {
            words: num_taxa.div_ceil(64),
            nodes: vec![Default::default(); num_inner],
            current: vec![0; num_inner],
            clock: 0,
            ids: ClassIdMap::default(),
            tips: Vec::new(),
        }
    }

    /// Inner node `idx`'s table in its current orientation (the last
    /// one [`RepeatTables::ensure`] provided).
    pub(crate) fn table(&self, idx: usize) -> &RepeatTable {
        &self.nodes[idx][self.current[idx]].table
    }

    fn source<'a>(&'a self, child: Child<'a>) -> ClassSource<'a> {
        match child {
            Child::Tip(_, codes) => ClassSource::Tip(codes),
            Child::Inner(idx) => ClassSource::Inner(self.table(idx)),
        }
    }

    /// Makes inner node `idx`'s current table the one for the tips
    /// below `children` under binding `epoch`, building it (with class
    /// limit `limit`) unless it is cached. Children must be ensured
    /// first, as a post-order walk does. Returns whether it built.
    pub(crate) fn ensure(
        &mut self,
        idx: usize,
        children: [Child<'_>; 2],
        epoch: u64,
        limit: usize,
    ) -> bool {
        let mut tips = std::mem::take(&mut self.tips);
        tips.clear();
        tips.resize(self.words, 0);
        for child in children {
            match child {
                Child::Tip(id, _) => tips[id / 64] |= 1 << (id % 64),
                Child::Inner(c) => {
                    let below = &self.nodes[c][self.current[c]].tips;
                    for (t, b) in tips.iter_mut().zip(below) {
                        *t |= b;
                    }
                }
            }
        }
        self.clock += 1;
        let slots = &self.nodes[idx];
        let cached = slots
            .iter()
            .position(|s| s.epoch == epoch && s.tips == tips);
        let slot = match cached {
            Some(slot) => slot,
            None => {
                let lru = (1..TABLES_PER_NODE).fold(0, |lru, s| {
                    if slots[s].last_use < slots[lru].last_use {
                        s
                    } else {
                        lru
                    }
                });
                let mut table = std::mem::take(&mut self.nodes[idx][lru].table);
                self.rebuild_into(&mut table, children, limit);
                let entry = &mut self.nodes[idx][lru];
                entry.table = table;
                entry.epoch = epoch;
                std::mem::swap(&mut entry.tips, &mut tips);
                lru
            }
        };
        self.nodes[idx][slot].last_use = self.clock;
        self.current[idx] = slot;
        self.tips = tips;
        cached.is_none()
    }

    /// Rebuilds `table` in place over two children's class sources
    /// (the joint table of a root pair, or a node's own).
    pub(crate) fn rebuild_into(
        &mut self,
        table: &mut RepeatTable,
        children: [Child<'_>; 2],
        limit: usize,
    ) {
        let mut ids = std::mem::take(&mut self.ids);
        table.rebuild(
            self.source(children[0]),
            self.source(children[1]),
            limit,
            &mut ids,
        );
        self.ids = ids;
    }
}

/// Reusable class-indexed staging buffers for compressed `newview`
/// calls: gathered child inputs and the kernel's per-class output,
/// all sized for the engine's full pattern count (classes ≤ sites).
/// Kernel-facing slices stay whole-site and 64-byte-base aligned, so
/// the explicit-SIMD backend's buffer contract holds for the
/// compressed views too.
pub(crate) struct RepeatScratch {
    v_l: AlignedVec,
    v_r: AlignedVec,
    s_l: Vec<u32>,
    s_r: Vec<u32>,
    /// Per-class sum of gathered child counters (the inherited part of
    /// the output counter), for the multiplicity correction.
    in_s: Vec<u32>,
    codes_l: Vec<u8>,
    codes_r: Vec<u8>,
    out_v: AlignedVec,
    out_s: Vec<u32>,
}

impl RepeatScratch {
    /// Allocates scratch for up to `num_patterns` classes.
    pub(crate) fn new(num_patterns: usize) -> Self {
        RepeatScratch {
            v_l: AlignedVec::zeroed(num_patterns * SITE_STRIDE),
            v_r: AlignedVec::zeroed(num_patterns * SITE_STRIDE),
            s_l: vec![0; num_patterns],
            s_r: vec![0; num_patterns],
            in_s: vec![0; num_patterns],
            codes_l: Vec::with_capacity(num_patterns),
            codes_r: Vec::with_capacity(num_patterns),
            out_v: AlignedVec::zeroed(num_patterns * SITE_STRIDE),
            out_s: vec![0; num_patterns],
        }
    }

    /// Expands the per-class kernel output into the full per-site CLA
    /// buffers and re-weights the global scaling-events metric by class
    /// multiplicity (see the module docs' bit-identity contract).
    fn finish(&mut self, table: &RepeatTable, nc: usize, out_v: &mut [f64], out_s: &mut [u32]) {
        table.expand(
            &self.out_v[..nc * SITE_STRIDE],
            &self.out_s[..nc],
            out_v,
            out_s,
        );
        let extra = table.extra_scaling_events(&self.out_s[..nc], &self.in_s[..nc]);
        if extra > 0 {
            crate::scaling::add_scaling_events(extra);
        }
    }

    /// Compressed tip-tip `newview`: gathers representative codes, runs
    /// the kernel over `num_classes` sites, expands.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn newview_tt(
        &mut self,
        kernel: &dyn Kernels,
        table: &RepeatTable,
        lut_l: &Lut16x16,
        lut_r: &Lut16x16,
        codes_l: &[u8],
        codes_r: &[u8],
        out_v: &mut [f64],
        out_s: &mut [u32],
    ) {
        let nc = table.num_classes();
        table.gather_codes(codes_l, &mut self.codes_l);
        table.gather_codes(codes_r, &mut self.codes_r);
        kernel.newview_tt(
            lut_l,
            lut_r,
            &self.codes_l,
            &self.codes_r,
            &mut self.out_v[..nc * SITE_STRIDE],
            &mut self.out_s[..nc],
        );
        self.in_s[..nc].fill(0);
        self.finish(table, nc, out_v, out_s);
    }

    /// Compressed tip-inner `newview`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn newview_ti(
        &mut self,
        kernel: &dyn Kernels,
        table: &RepeatTable,
        lut_l: &Lut16x16,
        codes_l: &[u8],
        p_r: &FusedPmat,
        v_r: &[f64],
        scale_r: &[u32],
        out_v: &mut [f64],
        out_s: &mut [u32],
    ) {
        let nc = table.num_classes();
        table.gather_codes(codes_l, &mut self.codes_l);
        table.gather_sites(v_r, scale_r, &mut self.v_r, &mut self.s_r);
        kernel.newview_ti(
            lut_l,
            &self.codes_l,
            p_r,
            &self.v_r[..nc * SITE_STRIDE],
            &self.s_r[..nc],
            &mut self.out_v[..nc * SITE_STRIDE],
            &mut self.out_s[..nc],
        );
        self.in_s[..nc].copy_from_slice(&self.s_r[..nc]);
        self.finish(table, nc, out_v, out_s);
    }

    /// Compressed inner-inner `newview`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn newview_ii(
        &mut self,
        kernel: &dyn Kernels,
        table: &RepeatTable,
        p_l: &FusedPmat,
        v_l: &[f64],
        scale_l: &[u32],
        p_r: &FusedPmat,
        v_r: &[f64],
        scale_r: &[u32],
        out_v: &mut [f64],
        out_s: &mut [u32],
    ) {
        let nc = table.num_classes();
        table.gather_sites(v_l, scale_l, &mut self.v_l, &mut self.s_l);
        table.gather_sites(v_r, scale_r, &mut self.v_r, &mut self.s_r);
        kernel.newview_ii(
            p_l,
            &self.v_l[..nc * SITE_STRIDE],
            &self.s_l[..nc],
            p_r,
            &self.v_r[..nc * SITE_STRIDE],
            &self.s_r[..nc],
            &mut self.out_v[..nc * SITE_STRIDE],
            &mut self.out_s[..nc],
        );
        for c in 0..nc {
            self.in_s[c] = self.s_l[c] + self.s_r[c];
        }
        self.finish(table, nc, out_v, out_s);
    }

    /// Folded tip-inner `derivativeSum`: gathers the root pair's
    /// buffers at the joint table's class representatives and fills the
    /// leading `num_classes` sumtable columns. No expansion happens —
    /// the engine folds the per-class derivative terms back into the
    /// site-order reduction instead (see
    /// [`crate::LikelihoodEngine::branch_derivatives`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn derivative_sum_ti_folded(
        &mut self,
        kernel: &dyn Kernels,
        table: &RepeatTable,
        basis: &EigenBasis,
        codes_q: &[u8],
        v_r: &[f64],
        scale_r: &[u32],
        out: &mut [f64],
    ) {
        let nc = table.num_classes();
        table.gather_codes(codes_q, &mut self.codes_l);
        table.gather_sites(v_r, scale_r, &mut self.v_r, &mut self.s_r);
        kernel.derivative_sum_ti(
            basis,
            &self.codes_l,
            &self.v_r[..nc * SITE_STRIDE],
            &mut out[..nc * SITE_STRIDE],
        );
    }

    /// Folded inner-inner `derivativeSum`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn derivative_sum_ii_folded(
        &mut self,
        kernel: &dyn Kernels,
        table: &RepeatTable,
        basis: &EigenBasis,
        v_q: &[f64],
        scale_q: &[u32],
        v_r: &[f64],
        scale_r: &[u32],
        out: &mut [f64],
    ) {
        let nc = table.num_classes();
        table.gather_sites(v_q, scale_q, &mut self.v_l, &mut self.s_l);
        table.gather_sites(v_r, scale_r, &mut self.v_r, &mut self.s_r);
        kernel.derivative_sum_ii(
            basis,
            &self.v_l[..nc * SITE_STRIDE],
            &self.v_r[..nc * SITE_STRIDE],
            &mut out[..nc * SITE_STRIDE],
        );
    }
}

/// Times the `Auto` cost model accepted compression at a decision
/// site.
pub(crate) fn profitable_hits() -> &'static crate::metrics::Counter {
    static C: std::sync::OnceLock<crate::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| crate::metrics::counter("core.repeats.profitable_hits"))
}

/// Times the `Auto` cost model rejected compression at a decision
/// site.
pub(crate) fn profitable_skips() -> &'static crate::metrics::Counter {
    static C: std::sync::OnceLock<crate::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| crate::metrics::counter("core.repeats.profitable_skips"))
}

/// Repeat-table passes over the sites (node and root-fold tables).
fn table_builds() -> &'static crate::metrics::Counter {
    static C: std::sync::OnceLock<crate::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| crate::metrics::counter("core.repeats.table_builds"))
}

/// Repeat tables saturated without a pass because a child already
/// exceeded the class limit.
fn saturated_skips() -> &'static crate::metrics::Counter {
    static C: std::sync::OnceLock<crate::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| crate::metrics::counter("core.repeats.saturated_skips"))
}

/// Cumulative per-engine compression effectiveness, surfaced through
/// trace metadata and the CLI summary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RepeatStats {
    /// Total `newview` calls (compressed or not).
    pub newview_calls: u64,
    /// Calls that ran over repeat classes instead of all sites.
    pub compressed_calls: u64,
    /// Sites covered by compressed calls.
    pub sites: u64,
    /// Classes actually computed by compressed calls.
    pub classes: u64,
    /// Node repeat tables built or saturated because no cached table
    /// matched the node's tip set.
    pub table_builds: u64,
}

impl RepeatStats {
    /// `classes / sites` over all compressed calls — the achieved
    /// kernel-work ratio (1.0 = nothing saved; `None` before any
    /// compressed call).
    pub fn ratio(&self) -> Option<f64> {
        (self.sites > 0).then(|| self.classes as f64 / self.sites as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_display_parse_round_trips_all_variants() {
        for mode in SiteRepeats::ALL {
            let name = mode.to_string();
            let back: SiteRepeats = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, mode, "{name} did not round-trip");
        }
    }

    #[test]
    fn unknown_mode_names_are_rejected_with_the_full_menu() {
        let err = "maybe".parse::<SiteRepeats>().unwrap_err();
        let msg = err.to_string();
        for mode in SiteRepeats::ALL {
            assert!(msg.contains(&mode.to_string()), "{msg} missing {mode}");
        }
    }

    #[test]
    fn tip_tip_classes_follow_code_pairs() {
        let l = [1u8, 2, 1, 1, 2];
        let r = [4u8, 8, 4, 8, 8];
        let t = RepeatTable::build(ClassSource::Tip(&l), ClassSource::Tip(&r));
        // Pairs: (1,4) (2,8) (1,4) (1,8) (2,8) → classes 0 1 0 2 1.
        assert_eq!(t.site2class(), &[0, 1, 0, 2, 1]);
        assert_eq!(t.repr_sites(), &[0, 1, 3]);
        assert_eq!(t.multiplicities(), &[2, 2, 1]);
        assert_eq!(t.num_classes(), 3);
    }

    #[test]
    fn all_distinct_sites_yield_no_compression() {
        let l: Vec<u8> = (0..8).map(|i| 1 << (i % 4)).collect();
        let r: Vec<u8> = (0..8).map(|i| 1 << ((i / 4) % 4)).collect();
        let t = RepeatTable::build(ClassSource::Tip(&l), ClassSource::Tip(&r));
        // (l, r) pairs cycle with period 8 here, all distinct.
        assert_eq!(t.num_classes(), 8);
        assert!(!t.compresses(SiteRepeats::On));
        assert!(!t.compresses(SiteRepeats::Auto));
        assert_eq!(t.ratio(), 1.0);
    }

    #[test]
    fn fully_repeated_sites_collapse_to_one_class() {
        let codes = [5u8; 32];
        let t = RepeatTable::build(ClassSource::Tip(&codes), ClassSource::Tip(&codes));
        assert_eq!(t.num_classes(), 1);
        assert_eq!(t.multiplicities(), &[32]);
        assert!(t.compresses(SiteRepeats::On));
        assert!(t.compresses(SiteRepeats::Auto));
    }

    #[test]
    fn bottom_up_composition_distinguishes_subtree_patterns() {
        // Two tips glued into a cherry, then paired with a third tip:
        // sites 0 and 3 repeat at the cherry AND with tip c equal, so
        // they share a class at the parent; site 2 shares the cherry
        // class but differs at c.
        let a = [1u8, 2, 1, 1];
        let b = [4u8, 4, 4, 4];
        let cherry = RepeatTable::build(ClassSource::Tip(&a), ClassSource::Tip(&b));
        assert_eq!(cherry.site2class(), &[0, 1, 0, 0]);
        let c = [8u8, 8, 2, 8];
        let parent = RepeatTable::build(ClassSource::Tip(&c), ClassSource::Inner(&cherry));
        assert_eq!(parent.site2class(), &[0, 1, 2, 0]);
        assert_eq!(parent.multiplicities(), &[2, 1, 1]);
    }

    #[test]
    fn gather_and_expand_round_trip_bit_identically() {
        let l = [1u8, 2, 1, 2, 1];
        let r = [4u8, 4, 4, 4, 4];
        let t = RepeatTable::build(ClassSource::Tip(&l), ClassSource::Tip(&r));
        assert_eq!(t.num_classes(), 2);
        let n = t.num_sites();
        // A fake per-class kernel result.
        let comp_v: Vec<f64> = (0..t.num_classes() * SITE_STRIDE)
            .map(|i| i as f64 + 0.25)
            .collect();
        let comp_s = [3u32, 7];
        let mut out_v = vec![0.0; n * SITE_STRIDE];
        let mut out_s = vec![0u32; n];
        t.expand(&comp_v, &comp_s, &mut out_v, &mut out_s);
        assert_eq!(out_s, [3, 7, 3, 7, 3]);
        for (i, &c) in t.site2class().iter().enumerate() {
            assert_eq!(
                out_v[i * SITE_STRIDE..(i + 1) * SITE_STRIDE],
                comp_v[c as usize * SITE_STRIDE..(c as usize + 1) * SITE_STRIDE]
            );
        }
        // Gathering the expansion back at the representatives recovers
        // the compressed buffers exactly.
        let mut back_v = vec![0.0; t.num_classes() * SITE_STRIDE];
        let mut back_s = vec![0u32; t.num_classes()];
        t.gather_sites(&out_v, &out_s, &mut back_v, &mut back_s);
        assert_eq!(back_v, comp_v);
        assert_eq!(back_s, &comp_s[..]);
    }

    #[test]
    fn extra_scaling_events_weights_own_bumps_by_multiplicity() {
        let l = [1u8, 1, 2, 1, 2, 2];
        let r = [4u8; 6];
        let t = RepeatTable::build(ClassSource::Tip(&l), ClassSource::Tip(&r));
        assert_eq!(t.multiplicities(), &[3, 3]);
        // Class 0: inherited 2, bumped (3 = 2 + 1). Class 1: inherited
        // 5, no bump.
        let comp_s = [3u32, 5];
        let inherited = [2u32, 5];
        // Only class 0 bumped; its 2 non-representative members were
        // skipped by the kernel.
        assert_eq!(t.extra_scaling_events(&comp_s, &inherited), 2);
    }

    #[test]
    fn auto_decisions_bump_the_profitability_counters() {
        let hits0 = profitable_hits().get();
        let skips0 = profitable_skips().get();
        let codes = [5u8; 32];
        let hit = RepeatTable::build(ClassSource::Tip(&codes), ClassSource::Tip(&codes));
        assert!(hit.compresses_counted(SiteRepeats::Auto));
        let l: Vec<u8> = (0..8).map(|i| 1 << (i % 4)).collect();
        let r: Vec<u8> = (0..8).map(|i| 1 << ((i / 4) % 4)).collect();
        let skip = RepeatTable::build(ClassSource::Tip(&l), ClassSource::Tip(&r));
        assert!(!skip.compresses_counted(SiteRepeats::Auto));
        // On/Off never consult the cost model, so they must not count.
        assert!(hit.compresses_counted(SiteRepeats::On));
        assert!(!hit.compresses_counted(SiteRepeats::Off));
        assert!(profitable_hits().get() > hits0);
        assert!(profitable_skips().get() > skips0);
    }

    /// `n` class ids drawn from `k` values by a fixed-seed generator.
    fn random_ids(n: usize, k: u32, seed: u64) -> Vec<u32> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                // xorshift64*
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as u32 % k.max(1)
            })
            .collect()
    }

    /// The reference partition of `keys`: a `BTreeMap` from key to
    /// first-occurrence id.
    fn reference<K: Ord + Copy>(keys: &[K]) -> RepeatTable {
        let mut ids = std::collections::BTreeMap::new();
        let mut table = RepeatTable {
            sites: keys.len(),
            ..RepeatTable::default()
        };
        for (i, &key) in keys.iter().enumerate() {
            let next = table.repr.len() as u32;
            let id = *ids.entry(key).or_insert(next);
            if id == next {
                table.repr.push(i as u32);
                table.mult.push(0);
            }
            table.mult[id as usize] += 1;
            table.site2class.push(id);
        }
        table
    }

    /// Per-site class ids of a source, for building the reference.
    fn ids_of(src: ClassSource<'_>) -> Vec<u32> {
        match src {
            ClassSource::Tip(codes) => codes.iter().map(|&c| u32::from(c)).collect(),
            ClassSource::Inner(t) => t.site2class().to_vec(),
        }
    }

    #[test]
    fn builder_matches_a_btreemap_reference_on_both_paths() {
        // One map for every build: stale entries of earlier builds (and
        // of the other path) must read as empty.
        let mut ids = ClassIdMap::default();
        let mut colliding = ClassIdMap {
            multiplier: 1,
            ..ClassIdMap::default()
        };
        let mut table = RepeatTable::default();
        for n in [0usize, 1, 17, 5000] {
            for (shape, seed) in [("random", 1u64), ("all-equal", 2), ("all-distinct", 3)] {
                let (codes_l, codes_r, inner_l, inner_r) = match shape {
                    "all-equal" => (vec![7u8; n], vec![7u8; n], vec![0u32; n], vec![0u32; n]),
                    "all-distinct" => {
                        let seq: Vec<u32> = (0..n as u32).collect();
                        let codes: Vec<u8> = (0..n).map(|i| (i % 16) as u8).collect();
                        (codes.clone(), codes, seq.clone(), seq)
                    }
                    _ => {
                        let codes = |s| random_ids(n, 16, s).iter().map(|&c| c as u8).collect();
                        // ~n/3 classes per inner child: the inner/inner
                        // products exceed the dense bound at n = 5000.
                        let k = (n as u32 / 3).max(1);
                        (
                            codes(seed),
                            codes(seed + 10),
                            random_ids(n, k, seed + 20),
                            random_ids(n, k, seed + 30),
                        )
                    }
                };
                let inner_l = reference(&inner_l);
                let inner_r = reference(&inner_r);
                let sources = [
                    (ClassSource::Tip(&codes_l), ClassSource::Tip(&codes_r)),
                    (ClassSource::Tip(&codes_l), ClassSource::Inner(&inner_r)),
                    (ClassSource::Inner(&inner_l), ClassSource::Tip(&codes_r)),
                    (ClassSource::Inner(&inner_l), ClassSource::Inner(&inner_r)),
                ];
                for (l, r) in sources {
                    let pairs: Vec<(u32, u32)> = ids_of(l).into_iter().zip(ids_of(r)).collect();
                    let want = reference(&pairs);
                    // Dense up to 8 MiB of entries (all products but the
                    // largest inner/inner ones), then hashed throughout.
                    for (path, dense_max) in [("dense", 1 << 20), ("hashed", 0)] {
                        table.rebuild_with(l, r, usize::MAX, &mut ids, dense_max);
                        assert_eq!(table, want, "n={n} {shape} {path}");
                    }
                    // A degenerate multiplier sends every small pair to
                    // the same slot: one long probe chain, wrapping.
                    if n < 5000 {
                        table.rebuild_with(l, r, usize::MAX, &mut colliding, 0);
                        assert_eq!(table, want, "n={n} {shape} colliding");
                    }
                    // The default path choice and the fresh-scratch
                    // constructor agree too.
                    table.rebuild(l, r, usize::MAX, &mut ids);
                    assert_eq!(table, want, "n={n} {shape} default");
                    assert_eq!(RepeatTable::build(l, r), want, "n={n} {shape} build");
                }
            }
        }
    }

    #[test]
    fn generation_wrap_clears_stale_entries() {
        let mut ids = ClassIdMap {
            generation: u32::MAX - 1,
            ..ClassIdMap::default()
        };
        let a: Vec<u8> = (0..40).map(|i| (i % 5) as u8).collect();
        let b: Vec<u8> = (0..40).map(|i| (i % 3) as u8).collect();
        let want = RepeatTable::build(ClassSource::Tip(&a), ClassSource::Tip(&b));
        let mut t = RepeatTable::default();
        for _ in 0..3 {
            for dense_max in [usize::MAX, 0] {
                t.rebuild_with(
                    ClassSource::Tip(&a),
                    ClassSource::Tip(&b),
                    usize::MAX,
                    &mut ids,
                    dense_max,
                );
                assert_eq!(t, want);
            }
        }
        assert!(ids.generation < 10, "wrapped past zero");
    }

    #[test]
    fn builds_over_the_limit_saturate_and_saturation_propagates() {
        let a: Vec<u8> = (0..64).map(|i| (i % 16) as u8).collect();
        let b: Vec<u8> = (0..64).map(|i| (i / 16) as u8).collect();
        let mut ids = ClassIdMap::default();
        // 64 distinct pairs: a limit of 63 stops the pass mid-way.
        let mut child = RepeatTable::default();
        child.rebuild(ClassSource::Tip(&a), ClassSource::Tip(&b), 63, &mut ids);
        assert!(child.is_saturated());
        assert_eq!((child.num_sites(), child.num_classes()), (64, 64));
        assert!(child.site2class().is_empty() && child.repr_sites().is_empty());
        for mode in SiteRepeats::ALL {
            assert!(!child.compresses(mode), "{mode}");
        }
        // A limit at the class count keeps the full table.
        let mut full = RepeatTable::default();
        full.rebuild(ClassSource::Tip(&a), ClassSource::Tip(&b), 64, &mut ids);
        assert!(!full.is_saturated());
        assert_eq!(full.num_classes(), 64);

        // A parent of a saturated child saturates without a pass.
        let (builds0, skips0) = (table_builds().get(), saturated_skips().get());
        let mut parent = RepeatTable::default();
        parent.rebuild(
            ClassSource::Tip(&a),
            ClassSource::Inner(&child),
            63,
            &mut ids,
        );
        assert!(parent.is_saturated());
        assert!(saturated_skips().get() > skips0);
        // An inner child above the limit saturates the parent just the
        // same, even when it was built without a limit.
        parent.rebuild(
            ClassSource::Inner(&full),
            ClassSource::Tip(&b),
            10,
            &mut ids,
        );
        assert!(parent.is_saturated());
        // Skips are not passes (other tests may build concurrently, so
        // only the skip side is checked exactly against this thread).
        let _ = builds0;
        // Rebuilding the saturated table in place restores it fully.
        parent.rebuild(
            ClassSource::Tip(&a),
            ClassSource::Inner(&full),
            64,
            &mut ids,
        );
        assert_eq!(
            parent,
            RepeatTable::build(ClassSource::Tip(&a), ClassSource::Inner(&full))
        );
    }

    #[test]
    fn saturation_never_changes_a_compress_decision() {
        // Random subtrees over a few hundred sites: the limited rebuild
        // (what the engine runs) decides exactly like a full build.
        let mut ids = ClassIdMap::default();
        let (mut compressing, mut saturated) = (0, 0);
        for seed in 0..40u64 {
            let n = 300;
            // Four tips drawn from `protos` prototype columns; each code
            // is replaced by a random one with probability `noise`/16.
            let protos = 1 + (seed as u32 * 7) % 120;
            let noise = (seed % 4) as u32;
            let matrix = random_ids(protos as usize * 4, 16, seed);
            let proto_of = random_ids(n, protos, seed + 1000);
            let tips: Vec<Vec<u8>> = (0..4u64)
                .map(|t| {
                    let flip = random_ids(n, 16, 2000 + seed * 4 + t);
                    let random = random_ids(n, 16, 3000 + seed * 4 + t);
                    (0..n)
                        .map(|i| {
                            let code = if flip[i] < noise {
                                random[i]
                            } else {
                                matrix[proto_of[i] as usize * 4 + t as usize]
                            };
                            code as u8
                        })
                        .collect()
                })
                .collect();
            for mode in [SiteRepeats::On, SiteRepeats::Auto] {
                let limit = mode.class_limit(n);
                let mut ab = RepeatTable::default();
                ab.rebuild(
                    ClassSource::Tip(&tips[0]),
                    ClassSource::Tip(&tips[1]),
                    limit,
                    &mut ids,
                );
                let mut cd = RepeatTable::default();
                cd.rebuild(
                    ClassSource::Tip(&tips[2]),
                    ClassSource::Tip(&tips[3]),
                    limit,
                    &mut ids,
                );
                let mut root = RepeatTable::default();
                root.rebuild(
                    ClassSource::Inner(&ab),
                    ClassSource::Inner(&cd),
                    limit,
                    &mut ids,
                );
                let full_ab =
                    RepeatTable::build(ClassSource::Tip(&tips[0]), ClassSource::Tip(&tips[1]));
                let full_cd =
                    RepeatTable::build(ClassSource::Tip(&tips[2]), ClassSource::Tip(&tips[3]));
                let full_root =
                    RepeatTable::build(ClassSource::Inner(&full_ab), ClassSource::Inner(&full_cd));
                for (got, want) in [(&ab, &full_ab), (&cd, &full_cd), (&root, &full_root)] {
                    assert_eq!(
                        got.compresses(mode),
                        want.compresses(mode),
                        "seed {seed} {mode}"
                    );
                    if !got.is_saturated() {
                        assert_eq!(got, want, "seed {seed} {mode}");
                    }
                    compressing += usize::from(got.compresses(mode));
                    saturated += usize::from(got.is_saturated());
                }
            }
        }
        assert!(
            compressing > 10 && saturated > 10,
            "{compressing} {saturated}"
        );
    }

    /// A table of exactly `k` classes over `n` sites.
    fn table_with_classes(n: usize, k: u32) -> RepeatTable {
        let ids: Vec<u32> = (0..n as u32).map(|i| i % k).collect();
        let zeros = vec![0u8; n];
        RepeatTable::build(
            ClassSource::Inner(&reference(&ids)),
            ClassSource::Tip(&zeros),
        )
    }

    #[test]
    fn profitability_break_even_sits_near_27_percent() {
        // Unit tests run uncalibrated: equal bandwidths, so the
        // break-even is (396 − 136 − 12) / (396 + 528) = 248 / 924.
        let f = crate::cost::repeat_break_even();
        assert!((f - 248.0 / 924.0).abs() < 1e-15, "{f}");
        assert!((0.26..0.27).contains(&f), "{f}");
        // 1000 sites: 268 classes (0.268) pay, 269 (0.269) do not.
        assert_eq!(crate::cost::repeat_break_even_classes(1000), 268);
        let at = table_with_classes(1000, 268);
        assert_eq!(at.num_classes(), 268);
        assert!(at.profitable() && at.compresses(SiteRepeats::Auto));
        let above = table_with_classes(1000, 269);
        assert!(!above.profitable() && !above.compresses(SiteRepeats::Auto));
        // `On` still compresses anything below one class per site.
        assert!(above.compresses(SiteRepeats::On));
        // Exact break-evens stay exact: 924 sites allow 248 classes.
        assert_eq!(crate::cost::repeat_break_even_classes(924), 248);
        assert!(table_with_classes(924, 248).profitable());
        assert!(!table_with_classes(924, 249).profitable());
        // The saturation limit is the same rule.
        assert_eq!(SiteRepeats::Auto.class_limit(1000), 268);
        assert_eq!(SiteRepeats::On.class_limit(1000), 999);
        assert_eq!(SiteRepeats::Off.class_limit(1000), 0);
    }
}
