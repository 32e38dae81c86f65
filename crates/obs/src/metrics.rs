//! Deterministic sim-time metrics: gauges recorded when they change and
//! exported on a fixed virtual-time cadence as JSONL/CSV timeseries and as
//! Chrome trace-event *counter tracks* that land on the same Perfetto
//! timeline as the lifecycle trace.
//!
//! ## Recording model
//!
//! A sample *boundary* is `b = k · sample_ms` (k ≥ 1), and the sample at
//! `b` shows the state after every event with timestamp ≤ `b`. The engine
//! does not visit boundaries. It reports each gauge when the gauge
//! changes, at event time ([`MetricsRecorder::set`],
//! [`MetricsRecorder::set_util`]), and the recorder keeps one list of
//! change points per series. A change at `t` overwrites the series' last
//! point when no boundary falls in `[t_prev, t)`, so a series holds at most
//! min(changes, boundaries) points, and a run's recording cost follows its
//! state changes, not its boundaries. Utilization-to-date gauges are linear
//! in time between changes; their points hold the station's busy-signal
//! state ([`UtilState`]), evaluated at each boundary by the exports.
//!
//! The last exported boundary is fixed once, when the run closes the
//! recorder: the last `b ≤ end` at a normal end
//! ([`MetricsRecorder::close_through`], before wind-down mutates anything),
//! or the last `b < t` when the event budget trips at `t`
//! ([`MetricsRecorder::close_before`]: events at `t` never ran). The
//! exports expand the points to every boundary up to it; [`len`] counts
//! the samples without expanding.
//!
//! ## Determinism contract
//!
//! Samples derive exclusively from simulation state and the virtual
//! clock: no wall-clock quantities ever enter a recorder. The sharded
//! engine records per site — one recorder per logical process, recording
//! only its owned site, closed at that process's own end or trip — and
//! merges them with [`merge_ordered`], which concatenates the series in
//! site order; the exports then emit (time, site, declaration) order, a
//! pure function of the configuration. Metrics output is therefore
//! byte-identical for every shard/thread count, which the CI metrics gates
//! enforce. Wall-clock shard diagnostics (busy/stall split, null messages)
//! stay in [`crate::shardstats`] and are only folded into *terminal*
//! summaries, never into these exports.
//!
//! [`len`]: MetricsRecorder::len
//! [`merge_ordered`]: MetricsRecorder::merge_ordered

use std::fmt::Write as _;

use crate::JsonF64;

/// One recorded quantity. The set is closed (an enum, not strings) so the
/// filter can be a bitmask and exports stay allocation-free per sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum MetricKind {
    /// CPU station population (in service + queued).
    CpuQ,
    /// Database-disk station population.
    DiskQ,
    /// Log-disk station population (0 when the log shares the DB disk).
    LogDiskQ,
    /// TM server population (the serialised server plus its queue).
    TmQ,
    /// Transactions queued for a DM server.
    DmQ,
    /// CPU utilization over the measurement window so far.
    CpuUtil,
    /// Database-disk utilization over the window so far.
    DiskUtil,
    /// Log-disk utilization over the window so far.
    LogDiskUtil,
    /// DM servers currently in use.
    DmInUse,
    /// Live transactions homed at the site (anywhere in the topology).
    TxActive,
    /// Transactions blocked at the site (lock or TSO wait).
    TxBlocked,
    /// Granted entries in the site's lock table.
    LockDepth,
    /// Transactions waiting in the site's lock table — the node count of
    /// the site's wait-for graph contribution.
    LockWaiters,
    /// Transactions at the site with a commit decision in flight (2PC).
    TwopcInflight,
    /// Journal length in bytes.
    JournalBytes,
    /// Cross-LP messages handled so far (coupled sharded engine only).
    XmsgIn,
    /// Cross-LP messages emitted so far (coupled sharded engine only).
    XmsgOut,
}

impl MetricKind {
    /// Every kind, in declaration (and canonical emission) order.
    pub const ALL: [MetricKind; 17] = [
        MetricKind::CpuQ,
        MetricKind::DiskQ,
        MetricKind::LogDiskQ,
        MetricKind::TmQ,
        MetricKind::DmQ,
        MetricKind::CpuUtil,
        MetricKind::DiskUtil,
        MetricKind::LogDiskUtil,
        MetricKind::DmInUse,
        MetricKind::TxActive,
        MetricKind::TxBlocked,
        MetricKind::LockDepth,
        MetricKind::LockWaiters,
        MetricKind::TwopcInflight,
        MetricKind::JournalBytes,
        MetricKind::XmsgIn,
        MetricKind::XmsgOut,
    ];

    /// Stable machine-readable label (JSONL/CSV `metric` column, counter
    /// track name, filter atom).
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::CpuQ => "cpu_q",
            MetricKind::DiskQ => "disk_q",
            MetricKind::LogDiskQ => "log_disk_q",
            MetricKind::TmQ => "tm_q",
            MetricKind::DmQ => "dm_q",
            MetricKind::CpuUtil => "cpu_util",
            MetricKind::DiskUtil => "disk_util",
            MetricKind::LogDiskUtil => "log_disk_util",
            MetricKind::DmInUse => "dm_in_use",
            MetricKind::TxActive => "tx_active",
            MetricKind::TxBlocked => "tx_blocked",
            MetricKind::LockDepth => "lock_depth",
            MetricKind::LockWaiters => "lock_waiters",
            MetricKind::TwopcInflight => "twopc_inflight",
            MetricKind::JournalBytes => "journal_bytes",
            MetricKind::XmsgIn => "xmsg_in",
            MetricKind::XmsgOut => "xmsg_out",
        }
    }

    /// Filter-grammar category this kind belongs to.
    pub fn category(self) -> &'static str {
        match self {
            MetricKind::CpuQ
            | MetricKind::DiskQ
            | MetricKind::LogDiskQ
            | MetricKind::TmQ
            | MetricKind::DmQ => "queue",
            MetricKind::CpuUtil
            | MetricKind::DiskUtil
            | MetricKind::LogDiskUtil
            | MetricKind::DmInUse => "util",
            MetricKind::TxActive | MetricKind::TxBlocked => "tx",
            MetricKind::LockDepth | MetricKind::LockWaiters => "lock",
            MetricKind::TwopcInflight => "twopc",
            MetricKind::JournalBytes => "journal",
            MetricKind::XmsgIn | MetricKind::XmsgOut => "shard",
        }
    }

    /// Whether this is a utilization-to-date gauge: linear in time
    /// between changes, so the recorder keeps its station's state and the
    /// exports evaluate it at each boundary.
    fn is_utilization(self) -> bool {
        matches!(
            self,
            MetricKind::CpuUtil | MetricKind::DiskUtil | MetricKind::LogDiskUtil
        )
    }

    /// Bit of this kind in a filter mask.
    #[inline]
    fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

/// The filter-grammar categories, in display order.
pub const METRIC_CATEGORIES: [&str; 7] =
    ["queue", "util", "tx", "lock", "twopc", "journal", "shard"];

/// Renders the "valid atoms" tail of a filter parse error: every category
/// followed by every exact label.
fn valid_metric_atoms() -> String {
    let labels: Vec<&str> = MetricKind::ALL.iter().map(|k| k.label()).collect();
    format!(
        "valid categories: {}; valid metrics: {}",
        METRIC_CATEGORIES.join("|"),
        labels.join(", ")
    )
}

/// Which metrics the recorder keeps.
///
/// ## Filter grammar
///
/// A spec is a `|`- or `,`-separated list of atoms; each atom is a
/// category from [`MetricKind::category`]
/// (`queue|util|tx|lock|twopc|journal|shard`) or an exact metric label
/// (`cpu_q`, `lock_waiters`, ...). Atoms OR together; the empty spec
/// accepts everything. Unknown atoms are an error that lists every valid
/// category and label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsFilter {
    /// Accepted-kind bitmask (bit order of [`MetricKind::ALL`]).
    kinds: u32,
}

impl Default for MetricsFilter {
    fn default() -> Self {
        Self::all()
    }
}

impl MetricsFilter {
    /// Accepts every metric.
    pub fn all() -> Self {
        MetricsFilter { kinds: u32::MAX }
    }

    /// Parses the filter grammar (see the type docs).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut mask = 0u32;
        let mut any = false;
        for atom in spec.split(['|', ',']) {
            let atom = atom.trim().to_ascii_lowercase();
            if atom.is_empty() {
                continue;
            }
            any = true;
            let mut hit = false;
            for k in MetricKind::ALL {
                if k.category() == atom || k.label() == atom {
                    mask |= k.bit();
                    hit = true;
                }
            }
            if !hit {
                return Err(format!("unknown metric `{atom}`: {}", valid_metric_atoms()));
            }
        }
        Ok(if any {
            MetricsFilter { kinds: mask }
        } else {
            MetricsFilter::all()
        })
    }

    /// Whether samples of `kind` pass the filter.
    #[inline]
    pub fn accepts(&self, kind: MetricKind) -> bool {
        self.kinds & kind.bit() != 0
    }
}

/// Metrics configuration, carried in `SimConfig`. The default is absent
/// (no recorder): a config without one runs the exact pre-metrics event
/// loop.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsConfig {
    /// Sim-time sampling cadence in milliseconds (> 0, finite).
    pub sample_ms: f64,
    /// Which metrics to keep.
    pub filter: MetricsFilter,
}

impl MetricsConfig {
    /// An unfiltered recorder configuration at `sample_ms` cadence.
    pub fn new(sample_ms: f64) -> Self {
        MetricsConfig {
            sample_ms,
            filter: MetricsFilter::all(),
        }
    }
}

/// One exported sample: `value` of `kind` at site `site` at virtual time
/// `t_ms`, a boundary multiple of the cadence. The recorder stores change
/// points; exports expand them into one sample per (boundary, series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSample {
    /// Virtual time of the boundary (ms since simulation start).
    pub t_ms: f64,
    /// Site the sample describes.
    pub site: u32,
    /// Which quantity.
    pub kind: MetricKind,
    /// The sampled value.
    pub value: f64,
}

/// A utilization gauge's state between two changes of its station's busy
/// signal: the four fields of the station's time-weighted accumulator
/// (`carat_des::TimeWeighted::state`). [`UtilState::mean`] repeats that
/// accumulator's `mean` operation for operation, so a boundary evaluated
/// from a recorded state has the bits `Fcfs::utilization` returns there.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UtilState {
    /// Start of the observation window.
    pub start: f64,
    /// Time of the last change of the signal.
    pub last_t: f64,
    /// The signal since `last_t` (1 busy, 0 idle).
    pub value: f64,
    /// Integral of the signal over `[start, last_t]`.
    pub area: f64,
}

impl UtilState {
    /// Time-average of the signal over `[start, now]`; 0 for an empty
    /// window.
    pub fn mean(&self, now: f64) -> f64 {
        let span = now - self.start;
        if span <= 0.0 {
            return 0.0;
        }
        (self.area + self.value * (now - self.last_t)) / span
    }
}

/// Index of the first boundary `k · sample_ms` (k ≥ 1) at or after `t`:
/// the first sample that shows a change made at `t`. The division guesses,
/// the loops settle it with the same `k as f64 * sample_ms` product the
/// exports print, so rounding can never put a change on the wrong side.
fn first_boundary_from(t: f64, sample_ms: f64) -> u64 {
    let mut k = ((t / sample_ms).ceil() as u64).max(1);
    while k > 1 && (k - 1) as f64 * sample_ms >= t {
        k -= 1;
    }
    while (k as f64) * sample_ms < t {
        k = k
            .checked_add(1)
            .expect("sample boundary index overflows u64");
    }
    k
}

/// Index of the last boundary at or before `end` (0 when none fits).
fn last_boundary_through(end: f64, sample_ms: f64) -> u64 {
    let mut k = (end / sample_ms).floor().max(0.0) as u64;
    while k > 0 && k as f64 * sample_ms > end {
        k -= 1;
    }
    while (k + 1) as f64 * sample_ms <= end {
        k += 1;
    }
    k
}

/// A series' change points: `(k, v)` means the gauge reads `v` at every
/// boundary from `k · sample_ms` until the next point's. The newest point
/// lives inline with `hi`, the time of its boundary: the engine's frequent
/// changes before that boundary just overwrite it, and only the first
/// change after it touches the list.
#[derive(Debug, Clone)]
struct Track<V> {
    /// The newest point; `k == 0` until the first change.
    cur: (u64, V),
    /// `cur.0 · sample_ms`; −∞ until the first change.
    hi: f64,
    /// The earlier points, oldest first, consecutive values distinct.
    done: Vec<(u64, V)>,
}

impl<V: Copy + PartialEq + Default> Track<V> {
    fn new() -> Self {
        Track {
            cur: (0, V::default()),
            hi: f64::NEG_INFINITY,
            done: Vec::new(),
        }
    }

    /// Records that the gauge reads `v` from `t` on; `epoch()` gives the
    /// first boundary at or after `t` and its time. Before the newest
    /// point's boundary the point was never exported, so `v` overwrites
    /// it. Past it, an unchanged value records nothing; a changed one makes
    /// the newest point final — it joins the list unless it repeats the
    /// value before it — and starts a new one. So a track holds at most
    /// one point per boundary, and a redundant call changes nothing that
    /// is exported.
    #[inline]
    fn change(&mut self, t: f64, v: V, epoch: impl FnOnce() -> (u64, f64)) {
        if t <= self.hi {
            self.cur.1 = v;
            return;
        }
        if v == self.cur.1 && self.cur.0 != 0 {
            return;
        }
        if self.cur.0 != 0 && self.done.last().is_none_or(|&(_, prev)| prev != self.cur.1) {
            self.done.push(self.cur);
        }
        let (k, hi) = epoch();
        self.cur = (k, v);
        self.hi = hi;
    }

    fn len(&self) -> usize {
        self.done.len() + usize::from(self.cur.0 != 0)
    }

    fn get(&self, i: usize) -> (u64, V) {
        self.done.get(i).copied().unwrap_or(self.cur)
    }
}

/// A series' points, by gauge type.
#[derive(Debug, Clone)]
enum Points {
    /// A step gauge: the value itself.
    Level(Track<f64>),
    /// A utilization gauge: the state to evaluate at each boundary.
    Util(Track<UtilState>),
}

impl Points {
    fn len(&self) -> usize {
        match self {
            Points::Level(p) => p.len(),
            Points::Util(p) => p.len(),
        }
    }

    /// First boundary of point `i`.
    fn k(&self, i: usize) -> u64 {
        match self {
            Points::Level(p) => p.get(i).0,
            Points::Util(p) => p.get(i).0,
        }
    }

    /// Point `i`'s reading at boundary time `b`.
    fn value(&self, i: usize, b: f64) -> f64 {
        match self {
            Points::Level(p) => p.get(i).1,
            Points::Util(p) => p.get(i).1.mean(b),
        }
    }
}

/// One recorded gauge: a (site, kind) pair and its change points.
#[derive(Debug, Clone)]
struct Series {
    site: u32,
    kind: MetricKind,
    /// Last boundary index the series exports; 0 until the recorder is
    /// closed.
    last: u64,
    points: Points,
}

/// The first boundary at or after the latest change, and its time: time
/// moves forward, mostly by less than a cadence between two boundary
/// crossings, so the next one is tried before dividing.
#[derive(Debug, Clone, Copy)]
struct Epoch {
    k: u64,
    hi: f64,
}

impl Epoch {
    /// Before any change: the first call finds boundary 1.
    const START: Epoch = Epoch {
        k: 0,
        hi: f64::NEG_INFINITY,
    };

    #[inline]
    fn at(&mut self, t: f64, sample_ms: f64) -> (u64, f64) {
        if t > self.hi {
            let next = (self.k + 1) as f64 * sample_ms;
            let k = if t <= next {
                self.k + 1
            } else {
                first_boundary_from(t, sample_ms)
            };
            *self = Epoch {
                k,
                hi: k as f64 * sample_ms,
            };
        }
        (self.k, self.hi)
    }
}

/// Marks a (site, kind) pair the recorder keeps no series for.
const NO_SERIES: u32 = u32::MAX;

/// The change log the engine records into: one list of change points per
/// series, expanded to the sample boundaries only by the exports.
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    sample_ms: f64,
    /// Series index of `(site, kind)` at `site · KINDS + kind`, or
    /// [`NO_SERIES`]. Empty once merged: a merged recorder is closed.
    slots: Vec<u32>,
    /// In (site, declaration) order; in part order after a merge.
    series: Vec<Series>,
    epoch: Epoch,
}

impl MetricsRecorder {
    /// An open recorder for `cfg` with one series per site in `sites` and
    /// per kind that both `cfg.filter` and `produced` accept, in (site,
    /// declaration) order. The set is fixed here. Every series starts
    /// empty: the engine seeds it with the state at t = 0 before the run.
    pub fn new(
        cfg: &MetricsConfig,
        sites: std::ops::Range<u32>,
        produced: impl Fn(MetricKind) -> bool,
    ) -> Self {
        let kinds = MetricKind::ALL.len();
        let mut slots = vec![NO_SERIES; sites.end as usize * kinds];
        let mut series = Vec::new();
        for site in sites {
            for kind in MetricKind::ALL {
                if cfg.filter.accepts(kind) && produced(kind) {
                    slots[site as usize * kinds + kind as usize] = series.len() as u32;
                    let points = if kind.is_utilization() {
                        Points::Util(Track::new())
                    } else {
                        Points::Level(Track::new())
                    };
                    series.push(Series {
                        site,
                        kind,
                        last: 0,
                        points,
                    });
                }
            }
        }
        MetricsRecorder {
            sample_ms: cfg.sample_ms,
            slots,
            series,
            epoch: Epoch::START,
        }
    }

    /// The sampling cadence.
    pub fn sample_ms(&self) -> f64 {
        self.sample_ms
    }

    /// Index of the series of `(site, kind)`, when the recorder keeps one.
    #[inline]
    fn slot(&self, site: u32, kind: MetricKind) -> Option<usize> {
        let slot = site as usize * MetricKind::ALL.len() + kind as usize;
        match self.slots.get(slot) {
            Some(&i) if i != NO_SERIES => Some(i as usize),
            _ => None,
        }
    }

    /// Records that step gauge `kind` at `site` reads `value` from `t_ms`
    /// on. Times never decrease. Kinds and sites without a series are
    /// ignored, and so is an unchanged value, so callers need no gating.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a utilization gauge (see [`Self::set_util`]).
    #[inline]
    pub fn set(&mut self, t_ms: f64, site: u32, kind: MetricKind, value: f64) {
        let Some(i) = self.slot(site, kind) else {
            return;
        };
        let (epoch, sample_ms) = (&mut self.epoch, self.sample_ms);
        match &mut self.series[i].points {
            Points::Level(track) => track.change(t_ms, value, || epoch.at(t_ms, sample_ms)),
            Points::Util(_) => panic!("{} is a utilization gauge", kind.label()),
        }
    }

    /// Records the busy-signal state behind utilization gauge `kind` at
    /// `site` from `t_ms` on; exports evaluate it at each boundary.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a step gauge (see [`Self::set`]).
    #[inline]
    pub fn set_util(&mut self, t_ms: f64, site: u32, kind: MetricKind, state: UtilState) {
        let Some(i) = self.slot(site, kind) else {
            return;
        };
        let (epoch, sample_ms) = (&mut self.epoch, self.sample_ms);
        match &mut self.series[i].points {
            Points::Util(track) => track.change(t_ms, state, || epoch.at(t_ms, sample_ms)),
            Points::Level(_) => panic!("{} is a step gauge", kind.label()),
        }
    }

    /// Closes a run that reached its end: the last exported boundary is
    /// the last one at or before `end`. Record nothing after closing.
    pub fn close_through(&mut self, end: f64) {
        self.close(last_boundary_through(end, self.sample_ms));
    }

    /// Closes a run interrupted at `t` (an event-budget trip): the last
    /// exported boundary is the last one strictly before `t`, because the
    /// events at `t` never ran.
    pub fn close_before(&mut self, t: f64) {
        self.close(first_boundary_from(t, self.sample_ms) - 1);
    }

    fn close(&mut self, last: u64) {
        for s in &mut self.series {
            assert!(
                last == 0 || s.points.len() > 0,
                "series {} of site {} was never seeded",
                s.kind.label(),
                s.site
            );
            s.last = last;
        }
    }

    /// Number of samples the exports write, counted without expanding.
    pub fn len(&self) -> usize {
        self.series.iter().map(|s| s.last as usize).sum()
    }

    /// Whether the exports are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The samples, in export order, expanded from the change points.
    pub fn samples(&self) -> Vec<MetricSample> {
        self.expand(|_| true).collect()
    }

    /// Sites with at least one sample, ascending.
    pub fn sampled_sites(&self) -> Vec<u32> {
        let mut sites: Vec<u32> = self
            .series
            .iter()
            .filter(|s| s.last > 0)
            .map(|s| s.site)
            .collect();
        sites.sort_unstable();
        sites.dedup();
        sites
    }

    /// Expands the series `pick` accepts into samples: boundary by
    /// boundary, and within one boundary in series order.
    fn expand(&self, pick: impl Fn(&Series) -> bool) -> Expand<'_> {
        let picked: Vec<(usize, usize)> = (0..self.series.len())
            .filter(|&i| pick(&self.series[i]))
            .map(|i| (i, 0))
            .collect();
        let last = picked
            .iter()
            .map(|&(i, _)| self.series[i].last)
            .max()
            .unwrap_or(0);
        Expand {
            rec: self,
            picked,
            k: 1,
            next: 0,
            last,
        }
    }

    /// Merges per-LP recorders from the sharded engine. Each part carries
    /// true site indices (an LP records only its owned site) and its own
    /// last boundary, so no re-tagging happens: the series concatenate in
    /// the order given (site-major), and the exports interleave them by
    /// boundary, keeping part order within one — as a stable time sort of
    /// the parts' samples would.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn merge_ordered(parts: Vec<MetricsRecorder>) -> MetricsRecorder {
        let sample_ms = parts
            .first()
            .expect("merge_ordered needs at least one part")
            .sample_ms;
        MetricsRecorder {
            sample_ms,
            slots: Vec::new(),
            series: parts.into_iter().flat_map(|p| p.series).collect(),
            epoch: Epoch::START,
        }
    }

    /// Renders the samples as JSONL: one self-describing object per
    /// sample, oldest first — the machine-consumption format.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.len() * 72);
        for s in self.expand(|_| true) {
            writeln!(
                out,
                "{{\"t_ms\": {}, \"site\": {}, \"metric\": \"{}\", \"value\": {}}}",
                JsonF64(s.t_ms),
                s.site,
                s.kind.label(),
                JsonF64(s.value),
            )
            .expect("writing to a String cannot fail");
        }
        out
    }

    /// Renders the samples as CSV with a `t_ms,site,metric,value` header.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.len() * 40 + 24);
        out.push_str("t_ms,site,metric,value\n");
        for s in self.expand(|_| true) {
            writeln!(
                out,
                "{},{},{},{}",
                JsonF64(s.t_ms),
                s.site,
                s.kind.label(),
                JsonF64(s.value),
            )
            .expect("writing to a String cannot fail");
        }
        out
    }

    /// Renders each sample as a Chrome trace-event counter (`ph:"C"`)
    /// object, one JSON line per sample with microsecond timestamps. Each
    /// (site, metric) pair becomes one counter track under the site's
    /// process (`pid` = site), exactly where the lifecycle trace puts the
    /// site's slices — so counters and events share one timeline.
    pub fn chrome_counter_lines(&self) -> impl Iterator<Item = String> + '_ {
        self.expand(|_| true).map(|s| {
            format!(
                "{{\"ph\": \"C\", \"name\": \"{}\", \"cat\": \"metric\", \"pid\": {}, \
                 \"ts\": {}, \"args\": {{\"value\": {}}}}}",
                s.kind.label(),
                s.site,
                JsonF64(s.t_ms * 1000.0),
                JsonF64(s.value),
            )
        })
    }

    /// Renders the samples as a standalone Chrome trace-event JSON
    /// document (counter tracks only), loadable in Perfetto /
    /// `chrome://tracing` on its own. To land counters on the same
    /// timeline as a lifecycle trace, use
    /// [`Tracer::to_chrome_json_with`](crate::Tracer::to_chrome_json_with)
    /// instead.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.len() * 96 + 256);
        out.push_str("{\"traceEvents\": [\n");
        let mut first = true;
        let mut push = |out: &mut String, line: &str| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            out.push_str(line);
        };
        for n in self.sampled_sites() {
            push(
                &mut out,
                &format!(
                    "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {n}, \
                     \"args\": {{\"name\": \"node {n}\"}}}}"
                ),
            );
        }
        for line in self.chrome_counter_lines() {
            push(&mut out, &line);
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }

    /// Per-metric aggregates over the whole run (values pooled across
    /// sites), in [`MetricKind::ALL`] order; kinds with no samples are
    /// omitted. `spark_width` is the sparkline column count. Expands one
    /// kind at a time, so memory stays at one kind's samples.
    pub fn summarize(&self, spark_width: usize) -> Vec<MetricSummary> {
        let mut out = Vec::new();
        let Some(last) = self.series.iter().map(|s| s.last).max().filter(|&k| k > 0) else {
            return out;
        };
        let t_min = self.sample_ms;
        let t_max = last as f64 * self.sample_ms;
        for kind in MetricKind::ALL {
            let mut vals: Vec<f64> = Vec::new();
            let mut spark_sum = vec![0.0f64; spark_width.max(1)];
            let mut spark_n = vec![0u64; spark_width.max(1)];
            for s in self.expand(|s| s.kind == kind) {
                vals.push(s.value);
                let frac = if t_max > t_min {
                    (s.t_ms - t_min) / (t_max - t_min)
                } else {
                    0.0
                };
                let col = ((frac * spark_sum.len() as f64) as usize).min(spark_sum.len() - 1);
                spark_sum[col] += s.value;
                spark_n[col] += 1;
            }
            if vals.is_empty() {
                continue;
            }
            let count = vals.len();
            let sum: f64 = vals.iter().sum();
            let mut sorted = vals;
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample values"));
            let p95 = sorted[((count as f64 * 0.95).ceil() as usize).clamp(1, count) - 1];
            let cols: Vec<f64> = spark_sum
                .iter()
                .zip(&spark_n)
                .map(|(&s, &n)| if n == 0 { f64::NAN } else { s / n as f64 })
                .collect();
            out.push(MetricSummary {
                kind,
                count,
                min: sorted[0],
                mean: sum / count as f64,
                max: sorted[count - 1],
                p95,
                spark: sparkline(&cols),
            });
        }
        out
    }
}

/// The expansion of some series into samples (see
/// [`MetricsRecorder::expand`]).
struct Expand<'a> {
    rec: &'a MetricsRecorder,
    /// `(series index, index of the point in force)`, in emission order.
    picked: Vec<(usize, usize)>,
    /// Boundary being emitted.
    k: u64,
    /// Next position in `picked` at boundary `k`.
    next: usize,
    /// Last boundary any picked series emits.
    last: u64,
}

impl Iterator for Expand<'_> {
    type Item = MetricSample;

    fn next(&mut self) -> Option<MetricSample> {
        while self.k <= self.last {
            let Some(&mut (i, ref mut at)) = self.picked.get_mut(self.next) else {
                self.next = 0;
                self.k += 1;
                continue;
            };
            self.next += 1;
            let s = &self.rec.series[i];
            if self.k > s.last {
                continue;
            }
            while *at + 1 < s.points.len() && s.points.k(*at + 1) <= self.k {
                *at += 1;
            }
            let b = self.k as f64 * self.rec.sample_ms;
            return Some(MetricSample {
                t_ms: b,
                site: s.site,
                kind: s.kind,
                value: s.points.value(*at, b),
            });
        }
        None
    }
}

/// One row of [`MetricsRecorder::summarize`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Which metric.
    pub kind: MetricKind,
    /// Samples pooled (all sites).
    pub count: usize,
    /// Smallest sampled value.
    pub min: f64,
    /// Arithmetic mean of the sampled values.
    pub mean: f64,
    /// Largest sampled value.
    pub max: f64,
    /// 95th percentile of the sampled values.
    pub p95: f64,
    /// Unicode sparkline of per-time-bucket means.
    pub spark: String,
}

/// Renders `vals` as a unicode block-glyph sparkline, normalised to the
/// finite min..max of the series; `NaN` entries (empty buckets) render as
/// a space, a flat series as the mid glyph.
pub fn sparkline(vals: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = vals.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    vals.iter()
        .map(|&v| {
            if !v.is_finite() {
                ' '
            } else if hi > lo {
                let idx = (((v - lo) / (hi - lo)) * 7.0).round() as usize;
                GLYPHS[idx.min(7)]
            } else {
                GLYPHS[3]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An open recorder over `sites` keeping the kinds `spec` accepts.
    fn rec(sample_ms: f64, sites: std::ops::Range<u32>, spec: &str) -> MetricsRecorder {
        let cfg = MetricsConfig {
            sample_ms,
            filter: MetricsFilter::parse(spec).unwrap(),
        };
        MetricsRecorder::new(&cfg, sites, |_| true)
    }

    /// `(t_ms, site, value)` of every exported sample.
    fn rows(m: &MetricsRecorder) -> Vec<(f64, u32, f64)> {
        m.samples()
            .iter()
            .map(|s| (s.t_ms, s.site, s.value))
            .collect()
    }

    #[test]
    fn close_fixes_the_last_boundary() {
        let mut m = rec(10.0, 0..1, "tm_q");
        m.set(0.0, 0, MetricKind::TmQ, 0.0);
        m.close_through(25.0);
        assert_eq!(m.len(), 2, "boundaries 10 and 20 are <= 25");
        m.close_through(30.0);
        assert_eq!(m.len(), 3, "a boundary equal to the end is exported");
        m.close_before(30.0);
        assert_eq!(m.len(), 2, "a trip at 30 keeps only boundaries < 30");
        m.close_before(30.5);
        assert_eq!(m.len(), 3);
        m.close_through(9.0);
        assert!(m.is_empty(), "no boundary fits before the first");
        // Non-representable cadences still land each boundary on the
        // printed product k · sample_ms.
        let mut m = rec(0.1, 0..1, "tm_q");
        m.set(0.0, 0, MetricKind::TmQ, 0.0);
        m.close_through(0.3);
        let times: Vec<f64> = m.samples().iter().map(|s| s.t_ms).collect();
        let expect: Vec<f64> = (1..=3u64)
            .map(|k| k as f64 * 0.1)
            .filter(|&b| b <= 0.3)
            .collect();
        assert_eq!(times, expect);
    }

    #[test]
    fn a_change_shows_from_the_first_boundary_at_or_after_it() {
        let mut m = rec(10.0, 0..1, "tm_q");
        m.set(0.0, 0, MetricKind::TmQ, 0.0);
        m.set(10.0, 0, MetricKind::TmQ, 1.0); // exactly on boundary 10
        m.set(10.5, 0, MetricKind::TmQ, 2.0); // first shown at 20
        m.set(19.0, 0, MetricKind::TmQ, 3.0); // overwrites 2 before 20
        m.set(35.0, 0, MetricKind::TmQ, 4.0);
        m.close_through(40.0);
        assert_eq!(
            rows(&m),
            vec![
                (10.0, 0, 1.0),
                (20.0, 0, 3.0),
                (30.0, 0, 3.0),
                (40.0, 0, 4.0)
            ]
        );
    }

    #[test]
    fn changes_between_two_boundaries_keep_one_point() {
        let mut m = rec(10.0, 0..1, "tm_q");
        let points = |m: &MetricsRecorder| -> Vec<(u64, f64)> {
            let Points::Level(track) = &m.series[0].points else {
                unreachable!()
            };
            (0..track.len()).map(|i| track.get(i)).collect()
        };
        m.set(0.0, 0, MetricKind::TmQ, 0.0);
        for i in 1..=9 {
            m.set(10.0 + i as f64, 0, MetricKind::TmQ, i as f64);
        }
        assert_eq!(points(&m), vec![(1, 0.0), (2, 9.0)]);
        // A value that comes back before the next boundary starts no point
        // of its own, and a redundant call past it records nothing.
        m.set(25.0, 0, MetricKind::TmQ, 1.0);
        m.set(26.0, 0, MetricKind::TmQ, 9.0);
        m.set(35.0, 0, MetricKind::TmQ, 9.0);
        assert_eq!(points(&m), vec![(1, 0.0), (2, 9.0), (3, 9.0)]);
        // The next change finds the newest point repeating the one before
        // it and does not keep it.
        m.set(36.0, 0, MetricKind::TmQ, 4.0);
        assert_eq!(points(&m), vec![(1, 0.0), (2, 9.0), (4, 4.0)]);
        m.close_through(40.0);
        assert_eq!(
            rows(&m),
            vec![
                (10.0, 0, 0.0),
                (20.0, 0, 9.0),
                (30.0, 0, 9.0),
                (40.0, 0, 4.0)
            ]
        );
    }

    #[test]
    fn utilization_is_evaluated_at_each_boundary() {
        let mut m = rec(10.0, 0..1, "cpu_util");
        let idle = UtilState {
            start: 0.0,
            last_t: 0.0,
            value: 0.0,
            area: 0.0,
        };
        m.set_util(0.0, 0, MetricKind::CpuUtil, idle);
        let busy = UtilState {
            last_t: 5.0,
            value: 1.0,
            ..idle
        };
        m.set_util(5.0, 0, MetricKind::CpuUtil, busy);
        m.close_through(20.0);
        let got: Vec<f64> = m.samples().iter().map(|s| s.value).collect();
        assert_eq!(got, vec![busy.mean(10.0), busy.mean(20.0)]);
        assert_eq!(got, vec![0.5, 0.75]);
        assert_eq!(idle.mean(0.0), 0.0, "an empty window reads 0");
    }

    #[test]
    fn filter_accepts_categories_and_exact_labels() {
        let f = MetricsFilter::parse("queue, lock_waiters").unwrap();
        assert!(f.accepts(MetricKind::CpuQ));
        assert!(f.accepts(MetricKind::TmQ));
        assert!(f.accepts(MetricKind::LockWaiters));
        assert!(!f.accepts(MetricKind::LockDepth));
        assert!(!f.accepts(MetricKind::JournalBytes));
        let pipes = MetricsFilter::parse("util|shard").unwrap();
        assert!(pipes.accepts(MetricKind::CpuUtil));
        assert!(pipes.accepts(MetricKind::XmsgIn));
        assert!(!pipes.accepts(MetricKind::CpuQ));
        assert_eq!(MetricsFilter::parse(""), Ok(MetricsFilter::all()));
    }

    #[test]
    fn filter_rejects_unknown_atoms_listing_every_valid_one() {
        let err = MetricsFilter::parse("queue|cpu_qq").unwrap_err();
        assert!(err.contains("unknown metric `cpu_qq`"), "{err}");
        for cat in METRIC_CATEGORIES {
            assert!(err.contains(cat), "error must list category {cat}: {err}");
        }
        for k in MetricKind::ALL {
            assert!(
                err.contains(k.label()),
                "error must list label {}: {err}",
                k.label()
            );
        }
    }

    #[test]
    fn record_honours_the_filter() {
        let mut m = rec(5.0, 0..1, "tx");
        m.set(0.0, 0, MetricKind::TxActive, 3.0);
        m.set(0.0, 0, MetricKind::TxBlocked, 0.0);
        m.set(0.0, 0, MetricKind::CpuQ, 9.0);
        m.set(0.0, 7, MetricKind::TxActive, 9.0); // no such site here
        m.close_through(5.0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.samples()[0].kind, MetricKind::TxActive);
        assert_eq!(m.samples()[0].value, 3.0);
        let cfg = MetricsConfig::new(5.0);
        let m = MetricsRecorder::new(&cfg, 0..2, |k| k.category() != "shard");
        assert_eq!(m.series.len(), 2 * (MetricKind::ALL.len() - 2));
    }

    #[test]
    fn merge_ordered_keeps_site_tags_and_part_order_on_ties() {
        let mut a = rec(10.0, 1..2, "tx_active");
        a.set(0.0, 1, MetricKind::TxActive, 4.0);
        a.set(25.0, 1, MetricKind::TxActive, 2.0);
        a.close_through(30.0);
        let mut b = rec(10.0, 0..1, "tx_active");
        b.set(0.0, 0, MetricKind::TxActive, 7.0);
        b.close_through(10.0);
        // A later part's earlier sample sorts ahead of an earlier part's
        // later one.
        let mut c = rec(10.0, 2..3, "cpu_q");
        c.set(0.0, 2, MetricKind::CpuQ, 5.0);
        c.set(15.0, 2, MetricKind::CpuQ, 6.0);
        c.close_through(20.0);
        let merged = MetricsRecorder::merge_ordered(vec![a, b, c]);
        assert_eq!(
            rows(&merged),
            vec![
                (10.0, 1, 4.0),
                (10.0, 0, 7.0),
                (10.0, 2, 5.0),
                (20.0, 1, 4.0),
                (20.0, 2, 6.0),
                (30.0, 1, 2.0)
            ],
            "time order across parts; ties keep part (concatenation) order"
        );
        assert_eq!(merged.len(), 6);
    }

    #[test]
    fn merge_sites_retags_and_orders_by_time_then_site() {
        // One recorder per site, given in site order, each recording only
        // its own site; site 1 ran one boundary further than the others.
        let mut parts: Vec<MetricsRecorder> = Vec::new();
        for site in 0..3u32 {
            let mut m = rec(10.0, site..site + 1, "tx_active");
            m.set(0.0, site, MetricKind::TxActive, site as f64);
            m.close_through(if site == 1 { 30.0 } else { 20.0 });
            parts.push(m);
        }
        let merged = MetricsRecorder::merge_ordered(parts);
        assert_eq!(
            rows(&merged),
            vec![
                (10.0, 0, 0.0),
                (10.0, 1, 1.0),
                (10.0, 2, 2.0),
                (20.0, 0, 0.0),
                (20.0, 1, 1.0),
                (20.0, 2, 2.0),
                (30.0, 1, 1.0)
            ],
            "each sample keeps its site tag; (time, site) order"
        );
        assert_eq!(merged.len(), 7, "each part keeps its own last boundary");
        assert_eq!(merged.sampled_sites(), vec![0, 1, 2]);
    }

    #[test]
    fn exports_are_canonical() {
        let mut a = rec(10.0, 0..1, "cpu_q");
        a.set(0.0, 0, MetricKind::CpuQ, 1.5);
        a.close_through(10.0);
        let mut b = rec(10.0, 1..2, "journal_bytes");
        b.set(0.0, 1, MetricKind::JournalBytes, 4096.0);
        b.close_through(10.0);
        let m = MetricsRecorder::merge_ordered(vec![a, b]);
        let jsonl = m.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"t_ms\": 10, \"site\": 0, \"metric\": \"cpu_q\", \"value\": 1.5}\n\
             {\"t_ms\": 10, \"site\": 1, \"metric\": \"journal_bytes\", \"value\": 4096}\n"
        );
        let csv = m.to_csv();
        assert_eq!(
            csv,
            "t_ms,site,metric,value\n10,0,cpu_q,1.5\n10,1,journal_bytes,4096\n"
        );
        let chrome = m.to_chrome_json();
        assert!(chrome.starts_with("{\"traceEvents\": ["));
        assert!(chrome.contains("\"ph\": \"C\""));
        assert!(chrome.contains("\"name\": \"cpu_q\""));
        assert!(chrome.contains("\"ts\": 10000")); // µs
        assert!(chrome.contains("\"pid\": 1"));
        assert!(chrome.trim_end().ends_with("\"displayTimeUnit\": \"ms\"}"));
    }

    #[test]
    fn summary_aggregates_and_draws_a_sparkline() {
        let mut m = rec(10.0, 0..1, "tm_q");
        m.set(0.0, 0, MetricKind::TmQ, 0.0);
        for k in 1..=100u64 {
            m.set((k - 1) as f64 * 10.0 + 1.0, 0, MetricKind::TmQ, k as f64);
        }
        m.close_through(1000.0);
        let rows = m.summarize(10);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.kind, MetricKind::TmQ);
        assert_eq!(row.count, 100);
        assert_eq!(row.min, 1.0);
        assert_eq!(row.max, 100.0);
        assert_eq!(row.mean, 50.5);
        assert_eq!(row.p95, 95.0);
        assert_eq!(row.spark.chars().count(), 10);
        assert!(row.spark.starts_with('▁') && row.spark.ends_with('█'));
    }

    #[test]
    fn sparkline_handles_flat_and_empty_series() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[2.0, 2.0, 2.0]), "▄▄▄");
        assert_eq!(sparkline(&[1.0, f64::NAN, 3.0]), "▁ █");
    }
}
