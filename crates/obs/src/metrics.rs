//! Deterministic sim-time metrics: gauges sampled on a fixed virtual-time
//! cadence, exported as JSONL/CSV timeseries and as Chrome trace-event
//! *counter tracks* that land on the same Perfetto timeline as the
//! lifecycle trace.
//!
//! ## Sampling model
//!
//! The engine owns a [`MetricsRecorder`] and emits one batch of samples
//! per *boundary* `b = k · sample_ms` (k ≥ 1). A sample at `b` captures
//! the state after every event with timestamp ≤ `b` has been applied:
//! the engine flushes boundaries strictly below the next event's
//! timestamp before handling it, flushes the remainder up to the horizon
//! at wind-down, and — when the event budget trips at `t` — stops after
//! the last boundary strictly below `t` (events at `t` never ran, so a
//! sample at `b ≥ t` would be a lie).
//!
//! ## Determinism contract
//!
//! Samples derive exclusively from simulation state and the virtual
//! clock: no wall-clock quantities ever enter a recorder. The sharded
//! engine records per site — one recorder per logical process, sampling
//! only its owned site — and merges them with [`merge_ordered`], a stable
//! time sort over a site-major concatenation and so a pure function of
//! the configuration. Metrics output is therefore byte-identical for every
//! shard/thread count, which the CI metrics gates enforce. Wall-clock
//! shard diagnostics (busy/stall split, null messages) stay in
//! [`crate::shardstats`] and are only folded into *terminal* summaries,
//! never into these exports.
//!
//! [`merge_ordered`]: MetricsRecorder::merge_ordered

/// One sampled quantity. The set is closed (an enum, not strings) so the
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

/// One sample: `value` of `kind` at site `site`, captured at virtual time
/// `t_ms` (a boundary multiple of the cadence).
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

/// The append-only sample log the engine records into, plus the boundary
/// cursor that drives the sampling cadence.
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    filter: MetricsFilter,
    sample_ms: f64,
    samples: Vec<MetricSample>,
    /// Index of the next boundary to emit (boundary time = `next_k *
    /// sample_ms`; starts at 1 — the t=0 state is the trivial empty
    /// system).
    next_k: u64,
}

impl MetricsRecorder {
    /// An empty recorder for `cfg`.
    pub fn new(cfg: &MetricsConfig) -> Self {
        MetricsRecorder {
            filter: cfg.filter,
            sample_ms: cfg.sample_ms,
            samples: Vec::new(),
            next_k: 1,
        }
    }

    /// The sampling cadence.
    pub fn sample_ms(&self) -> f64 {
        self.sample_ms
    }

    /// Virtual time of the next boundary still to be emitted.
    #[inline]
    pub fn next_boundary(&self) -> f64 {
        self.next_k as f64 * self.sample_ms
    }

    /// Marks the current boundary emitted and moves the cursor to the
    /// next one. Called by the engine after recording a boundary's batch.
    #[inline]
    pub fn finish_boundary(&mut self) {
        self.next_k += 1;
    }

    /// Whether the engine should bother computing `kind` at all.
    #[inline]
    pub fn accepts(&self, kind: MetricKind) -> bool {
        self.filter.accepts(kind)
    }

    /// Appends one sample (dropped silently when the filter rejects its
    /// kind, so emission sites need no gating).
    #[inline]
    pub fn record(&mut self, t_ms: f64, site: u32, kind: MetricKind, value: f64) {
        if self.filter.accepts(kind) {
            self.samples.push(MetricSample {
                t_ms,
                site,
                kind,
                value,
            });
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples, oldest first.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// Merges per-LP recorders from the sharded engine: each part
    /// already carries its true site index (an LP samples only its owned
    /// site), so no re-tagging happens — the parts concatenate in the
    /// order given (site-major) and stably sort by time.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn merge_ordered(parts: Vec<MetricsRecorder>) -> MetricsRecorder {
        let first = parts
            .first()
            .expect("merge_ordered needs at least one part");
        let (filter, sample_ms) = (first.filter, first.sample_ms);
        let mut samples: Vec<MetricSample> =
            Vec::with_capacity(parts.iter().map(MetricsRecorder::len).sum());
        let mut next_k = 1;
        for part in &parts {
            next_k = next_k.max(part.next_k);
            samples.extend(part.samples.iter().copied());
        }
        samples.sort_by(|a, b| a.t_ms.partial_cmp(&b.t_ms).expect("finite sample times"));
        MetricsRecorder {
            filter,
            sample_ms,
            samples,
            next_k,
        }
    }

    /// Renders the samples as JSONL: one self-describing object per
    /// sample, oldest first — the machine-consumption format.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 72);
        for s in &self.samples {
            out.push_str(&format!(
                "{{\"t_ms\": {}, \"site\": {}, \"metric\": \"{}\", \"value\": {}}}\n",
                crate::fmt_f64(s.t_ms),
                s.site,
                s.kind.label(),
                crate::fmt_f64(s.value),
            ));
        }
        out
    }

    /// Renders the samples as CSV with a `t_ms,site,metric,value` header.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 40 + 24);
        out.push_str("t_ms,site,metric,value\n");
        for s in &self.samples {
            out.push_str(&format!(
                "{},{},{},{}\n",
                crate::fmt_f64(s.t_ms),
                s.site,
                s.kind.label(),
                crate::fmt_f64(s.value),
            ));
        }
        out
    }

    /// Renders each sample as a Chrome trace-event counter (`ph:"C"`)
    /// object, one JSON line per sample with microsecond timestamps. Each
    /// (site, metric) pair becomes one counter track under the site's
    /// process (`pid` = site), exactly where the lifecycle trace puts the
    /// site's slices — so counters and events share one timeline.
    pub fn chrome_counter_lines(&self) -> impl Iterator<Item = String> + '_ {
        self.samples.iter().map(|s| {
            format!(
                "{{\"ph\": \"C\", \"name\": \"{}\", \"cat\": \"metric\", \"pid\": {}, \
                 \"ts\": {}, \"args\": {{\"value\": {}}}}}",
                s.kind.label(),
                s.site,
                crate::fmt_f64(s.t_ms * 1000.0),
                crate::fmt_f64(s.value),
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
        let mut out = String::with_capacity(self.samples.len() * 96 + 256);
        out.push_str("{\"traceEvents\": [\n");
        let mut sites: Vec<u32> = self.samples.iter().map(|s| s.site).collect();
        sites.sort_unstable();
        sites.dedup();
        let mut first = true;
        let mut push = |out: &mut String, line: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            out.push_str(&line);
        };
        for &n in &sites {
            push(
                &mut out,
                format!(
                    "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {n}, \
                     \"args\": {{\"name\": \"node {n}\"}}}}"
                ),
            );
        }
        for line in self.chrome_counter_lines() {
            push(&mut out, line);
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }

    /// Per-metric aggregates over the whole run (values pooled across
    /// sites), in [`MetricKind::ALL`] order; kinds with no samples are
    /// omitted. `spark_width` is the sparkline column count.
    pub fn summarize(&self, spark_width: usize) -> Vec<MetricSummary> {
        let mut out = Vec::new();
        if self.samples.is_empty() {
            return out;
        }
        let t_min = self.samples.first().expect("nonempty").t_ms;
        let t_max = self.samples.last().expect("nonempty").t_ms;
        for kind in MetricKind::ALL {
            let mut vals: Vec<f64> = Vec::new();
            let mut spark_sum = vec![0.0f64; spark_width.max(1)];
            let mut spark_n = vec![0u64; spark_width.max(1)];
            for s in &self.samples {
                if s.kind != kind {
                    continue;
                }
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

    fn rec(sample_ms: f64) -> MetricsRecorder {
        MetricsRecorder::new(&MetricsConfig::new(sample_ms))
    }

    #[test]
    fn boundary_cursor_walks_the_cadence() {
        let mut m = rec(10.0);
        assert_eq!(m.next_boundary(), 10.0);
        m.finish_boundary();
        assert_eq!(m.next_boundary(), 20.0);
        m.finish_boundary();
        assert_eq!(m.next_boundary(), 30.0);
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
        let mut m = MetricsRecorder::new(&MetricsConfig {
            sample_ms: 5.0,
            filter: MetricsFilter::parse("tx").unwrap(),
        });
        m.record(5.0, 0, MetricKind::TxActive, 3.0);
        m.record(5.0, 0, MetricKind::CpuQ, 9.0);
        assert_eq!(m.len(), 1);
        assert_eq!(m.samples()[0].kind, MetricKind::TxActive);
        assert!(m.accepts(MetricKind::TxBlocked));
        assert!(!m.accepts(MetricKind::CpuQ));
    }

    #[test]
    fn merge_ordered_keeps_site_tags_and_part_order_on_ties() {
        let mut a = rec(10.0);
        a.record(10.0, 1, MetricKind::TxActive, 4.0);
        let mut b = rec(10.0);
        b.record(10.0, 0, MetricKind::TxActive, 7.0);
        // A later part's earlier sample sorts ahead of an earlier part's
        // later one.
        let mut c = rec(10.0);
        c.record(10.0, 2, MetricKind::CpuQ, 5.0);
        c.record(20.0, 2, MetricKind::CpuQ, 6.0);
        a.record(30.0, 1, MetricKind::TxActive, 2.0);
        let merged = MetricsRecorder::merge_ordered(vec![a, b, c]);
        let got: Vec<(f64, u32, f64)> = merged
            .samples()
            .iter()
            .map(|s| (s.t_ms, s.site, s.value))
            .collect();
        assert_eq!(
            got,
            vec![
                (10.0, 1, 4.0),
                (10.0, 0, 7.0),
                (10.0, 2, 5.0),
                (20.0, 2, 6.0),
                (30.0, 1, 2.0)
            ],
            "time order across parts; ties keep part (concatenation) order"
        );
    }

    #[test]
    fn merge_sites_retags_and_orders_by_time_then_site() {
        // One recorder per site, given in site order, each sampling only
        // its own site; site 1 ran one boundary further than the others.
        let mut parts: Vec<MetricsRecorder> = Vec::new();
        for site in 0..3u32 {
            let mut m = rec(10.0);
            let boundaries = if site == 1 { 3 } else { 2 };
            for k in 1..=boundaries {
                m.record(k as f64 * 10.0, site, MetricKind::TxActive, site as f64);
                m.finish_boundary();
            }
            parts.push(m);
        }
        let merged = MetricsRecorder::merge_ordered(parts);
        let got: Vec<(f64, u32, f64)> = merged
            .samples()
            .iter()
            .map(|s| (s.t_ms, s.site, s.value))
            .collect();
        assert_eq!(
            got,
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
        // The cursor resumes after the furthest boundary any part emitted.
        assert_eq!(merged.next_boundary(), 40.0);
    }

    #[test]
    fn exports_are_canonical() {
        let mut m = rec(10.0);
        m.record(10.0, 0, MetricKind::CpuQ, 1.5);
        m.record(10.0, 1, MetricKind::JournalBytes, 4096.0);
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
        let mut m = rec(10.0);
        for k in 1..=100u64 {
            m.record(k as f64 * 10.0, 0, MetricKind::TmQ, k as f64);
            m.finish_boundary();
        }
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
