//! The transaction-lifecycle event tracer: event schema, filter grammar,
//! bounded ring buffer, and Chrome-trace / JSONL export.
//!
//! ## Trace schema
//!
//! Every event is a fixed-size [`TraceEvent`]: virtual timestamp (ms),
//! [`TraceKind`], a static display name, the node it happened at, the
//! transaction's gid and type, a per-node lane (the transaction's slab
//! slot, so concurrent transactions render on separate sub-tracks), a
//! kind-specific detail word, and a duration (phase events only).
//! Recording one event is a filter check plus a ring-buffer store: no
//! allocation, no formatting — all rendering happens at export time.
//!
//! ## Determinism
//!
//! Timestamps are the simulator's virtual clock, ids are gids (submission
//! order), and the buffer is filled in event-execution order, which the
//! deterministic scheduler fixes for a given seed. Two traced runs of the
//! same configuration therefore export byte-identical files.

use carat_workload::TxType;

/// What happened. The kind selects how the event renders in the Chrome
/// trace (complete slice, async span boundary, or instant) and which
/// filter category it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// A program phase completed: `dur_ms` of residence in the segment
    /// named by `name` (INIT, DMIO, LW, ...). Category `phase`.
    Phase,
    /// A user submitted a transaction (opens its async span). Category
    /// `tx`.
    TxSubmit,
    /// The transaction committed (closes its async span). Category `tx`.
    TxCommit,
    /// The execution ended in an abort; the user resubmits after think
    /// time with a fresh gid. Category `tx`.
    TxAbort,
    /// A lock was requested (`a` = block number). Category `lock`.
    LockRequest,
    /// The request conflicted and queued. Category `lock`.
    LockBlock,
    /// A queued request was granted by a release. Category `lock`.
    LockGrant,
    /// The transaction was chosen as a deadlock (or CC-rejection/timeout)
    /// victim; `name` says which. Category `deadlock`.
    DeadlockVictim,
    /// A Chandy–Misra–Haas probe hop (`a` = target gid). Category
    /// `deadlock`.
    ProbeHop,
    /// 2PC prepare executed at a participant. Category `twopc`.
    TwopcPrepare,
    /// 2PC decision applied at a participant (`name` = "commit" or
    /// "abort"). Category `twopc`.
    TwopcDecide,
    /// A node crashed (volatile state lost). Category `fault`.
    Crash,
    /// A node restarted / an orphaned participant resolved. Category
    /// `fault`.
    Recovery,
    /// A network message was sent (`a` = retransmission attempt).
    /// Category `net`.
    NetSend,
    /// The message was dropped in transit. Category `net`.
    NetDrop,
    /// A retransmission timer fired and the send was retried. Category
    /// `net`.
    NetRetry,
    /// The cluster split into components (`a` = number of components).
    /// Category `partition`.
    PartitionSplit,
    /// Full connectivity returned. Category `partition`.
    PartitionHeal,
    /// A request was re-routed off its primary replica (`a` = replica site
    /// that served it). Category `replica`.
    Failover,
    /// A lagging replica replayed missed committed writes through the
    /// journal (`a` = records applied). Category `replica`.
    ReplicaCatchup,
}

impl TraceKind {
    /// All kinds, in declaration order (= bit order of the filter mask).
    pub const ALL: [TraceKind; 20] = [
        TraceKind::Phase,
        TraceKind::TxSubmit,
        TraceKind::TxCommit,
        TraceKind::TxAbort,
        TraceKind::LockRequest,
        TraceKind::LockBlock,
        TraceKind::LockGrant,
        TraceKind::DeadlockVictim,
        TraceKind::ProbeHop,
        TraceKind::TwopcPrepare,
        TraceKind::TwopcDecide,
        TraceKind::Crash,
        TraceKind::Recovery,
        TraceKind::NetSend,
        TraceKind::NetDrop,
        TraceKind::NetRetry,
        TraceKind::PartitionSplit,
        TraceKind::PartitionHeal,
        TraceKind::Failover,
        TraceKind::ReplicaCatchup,
    ];

    /// Stable snake_case identifier (JSONL `kind` field).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Phase => "phase",
            TraceKind::TxSubmit => "tx_submit",
            TraceKind::TxCommit => "tx_commit",
            TraceKind::TxAbort => "tx_abort",
            TraceKind::LockRequest => "lock_request",
            TraceKind::LockBlock => "lock_block",
            TraceKind::LockGrant => "lock_grant",
            TraceKind::DeadlockVictim => "deadlock_victim",
            TraceKind::ProbeHop => "probe_hop",
            TraceKind::TwopcPrepare => "twopc_prepare",
            TraceKind::TwopcDecide => "twopc_decide",
            TraceKind::Crash => "crash",
            TraceKind::Recovery => "recovery",
            TraceKind::NetSend => "net_send",
            TraceKind::NetDrop => "net_drop",
            TraceKind::NetRetry => "net_retry",
            TraceKind::PartitionSplit => "partition_split",
            TraceKind::PartitionHeal => "partition_heal",
            TraceKind::Failover => "failover",
            TraceKind::ReplicaCatchup => "replica_catchup",
        }
    }

    /// Filter-grammar category this kind belongs to.
    pub fn category(self) -> &'static str {
        match self {
            TraceKind::Phase => "phase",
            TraceKind::TxSubmit | TraceKind::TxCommit | TraceKind::TxAbort => "tx",
            TraceKind::LockRequest | TraceKind::LockBlock | TraceKind::LockGrant => "lock",
            TraceKind::DeadlockVictim | TraceKind::ProbeHop => "deadlock",
            TraceKind::TwopcPrepare | TraceKind::TwopcDecide => "twopc",
            TraceKind::Crash | TraceKind::Recovery => "fault",
            TraceKind::NetSend | TraceKind::NetDrop | TraceKind::NetRetry => "net",
            TraceKind::PartitionSplit | TraceKind::PartitionHeal => "partition",
            TraceKind::Failover | TraceKind::ReplicaCatchup => "replica",
        }
    }

    /// Bit of this kind in a filter mask.
    #[inline]
    fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

/// One structured lifecycle event. Fixed-size and `Copy`: the ring buffer
/// stores values, never heap data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event (ms since simulation start).
    pub t_ms: f64,
    /// What happened.
    pub kind: TraceKind,
    /// Display name: the phase label for [`TraceKind::Phase`], a short
    /// verb otherwise ("request", "commit", ...).
    pub name: &'static str,
    /// Node (site) the event happened at.
    pub node: u32,
    /// The transaction's global id (0 for node-scoped events).
    pub gid: u64,
    /// The transaction's type.
    pub ty: TxType,
    /// Per-node sub-track: the transaction's slab slot, so concurrent
    /// transactions at one node render on distinct lanes.
    pub lane: u32,
    /// Kind-specific detail (lock block, probe target gid, retry
    /// attempt).
    pub a: u64,
    /// Residence duration for [`TraceKind::Phase`] events; 0 otherwise.
    pub dur_ms: f64,
}

impl TraceEvent {
    /// A new event with `lane = 0`, `a = 0`, `dur_ms = 0`; chain
    /// [`lane`](Self::lane2), [`detail`](Self::detail), and
    /// [`dur`](Self::dur) to fill the optional fields.
    pub fn new(
        t_ms: f64,
        kind: TraceKind,
        name: &'static str,
        node: u32,
        gid: u64,
        ty: TxType,
    ) -> Self {
        TraceEvent {
            t_ms,
            kind,
            name,
            node,
            gid,
            ty,
            lane: 0,
            a: 0,
            dur_ms: 0.0,
        }
    }

    /// Sets the per-node lane (builder style).
    pub fn lane2(mut self, lane: u32) -> Self {
        self.lane = lane;
        self
    }

    /// Sets the kind-specific detail word (builder style).
    pub fn detail(mut self, a: u64) -> Self {
        self.a = a;
        self
    }

    /// Sets the phase duration (builder style).
    pub fn dur(mut self, dur_ms: f64) -> Self {
        self.dur_ms = dur_ms;
        self
    }
}

/// Which events the tracer keeps.
///
/// ## Filter grammar
///
/// A spec is a `;`-separated list of clauses, each `key=v1|v2|...`:
///
/// * `kind=` — categories from [`TraceKind::category`]
///   (`phase|tx|lock|deadlock|twopc|fault|net|partition|replica`) or exact
///   kind labels (`lock_grant`, ...);
/// * `node=` — node indices;
/// * `ty=` — transaction types (`lro|lu|dro|du`).
///
/// Clauses AND together; values within a clause OR. The empty spec
/// accepts everything. Example: `kind=lock|deadlock;node=0;ty=du`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFilter {
    /// Accepted-kind bitmask (bit order of [`TraceKind::ALL`]).
    kinds: u32,
    /// Accepted nodes; `None` = all.
    nodes: Option<Vec<u32>>,
    /// Accepted transaction types; `None` = all.
    types: Option<Vec<TxType>>,
}

impl Default for TraceFilter {
    fn default() -> Self {
        Self::all()
    }
}

impl TraceFilter {
    /// Accepts every event.
    pub fn all() -> Self {
        TraceFilter {
            kinds: u32::MAX,
            nodes: None,
            types: None,
        }
    }

    /// Parses the filter grammar (see the type docs).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut f = TraceFilter::all();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, vals) = clause
                .split_once('=')
                .ok_or_else(|| format!("filter clause `{clause}` is not key=value"))?;
            match key.trim() {
                "kind" => {
                    let mut mask = 0u32;
                    for v in vals.split('|') {
                        let v = v.trim().to_ascii_lowercase();
                        let mut hit = false;
                        for k in TraceKind::ALL {
                            if k.category() == v || k.label() == v {
                                mask |= k.bit();
                                hit = true;
                            }
                        }
                        if !hit {
                            let labels: Vec<&str> =
                                TraceKind::ALL.iter().map(|k| k.label()).collect();
                            return Err(format!(
                                "unknown kind `{v}`: valid categories: phase|tx|lock|deadlock|\
                                 twopc|fault|net|partition|replica; valid kinds: {}",
                                labels.join(", ")
                            ));
                        }
                    }
                    f.kinds = mask;
                }
                "node" => {
                    let nodes: Result<Vec<u32>, String> = vals
                        .split('|')
                        .map(|v| {
                            v.trim()
                                .parse::<u32>()
                                .map_err(|_| format!("bad node `{v}`"))
                        })
                        .collect();
                    f.nodes = Some(nodes?);
                }
                "ty" => {
                    let types: Result<Vec<TxType>, String> = vals
                        .split('|')
                        .map(|v| match v.trim().to_ascii_lowercase().as_str() {
                            "lro" => Ok(TxType::Lro),
                            "lu" => Ok(TxType::Lu),
                            "dro" => Ok(TxType::Dro),
                            "du" => Ok(TxType::Du),
                            other => Err(format!("unknown tx type `{other}` (lro|lu|dro|du)")),
                        })
                        .collect();
                    f.types = Some(types?);
                }
                other => return Err(format!("unknown filter key `{other}` (kind|node|ty)")),
            }
        }
        Ok(f)
    }

    /// Whether an event passes the filter.
    #[inline]
    pub fn accepts(&self, ev: &TraceEvent) -> bool {
        if self.kinds & ev.kind.bit() == 0 {
            return false;
        }
        if let Some(nodes) = &self.nodes {
            if !nodes.contains(&ev.node) {
                return false;
            }
        }
        if let Some(types) = &self.types {
            if !types.contains(&ev.ty) {
                return false;
            }
        }
        true
    }
}

/// Tracer configuration, carried in `SimConfig`. The default is absent
/// (no tracer): a config without one runs the exact pre-observability
/// event loop.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Which events to keep.
    pub filter: TraceFilter,
    /// Ring-buffer capacity in events. When full, the oldest events are
    /// overwritten (and counted as dropped) — the trace keeps the *tail*
    /// of the run, which is the steady-state window of interest.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            filter: TraceFilter::all(),
            capacity: 1 << 20,
        }
    }
}

/// The bounded ring buffer the engine records into.
#[derive(Debug, Clone)]
pub struct Tracer {
    filter: TraceFilter,
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    /// Accepted events that were overwritten by later ones.
    dropped: u64,
    /// Accepted events total (recorded = min(recorded, capacity) kept).
    recorded: u64,
}

impl Tracer {
    /// A tracer with the given filter and capacity.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            filter: cfg.filter,
            buf: Vec::new(),
            capacity: cfg.capacity.max(1),
            head: 0,
            dropped: 0,
            recorded: 0,
        }
    }

    /// Records one event: a filter check plus a ring store. No allocation
    /// once the buffer has grown to capacity.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if !self.filter.accepts(&ev) {
            return;
        }
        self.recorded += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events accepted by the filter over the run (kept + overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Accepted events lost to ring-buffer wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Kept events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }

    /// Number of kept events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was kept.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Merges per-partition trace rings that already carry their global
    /// node indices into one canonical timeline.
    ///
    /// The sharded engine runs one logical process per site against the
    /// *full* topology, so its trace events are recorded with true site
    /// indices and cross-site hops appear inside a single partition's
    /// ring. No re-tagging happens: the parts are concatenated in the
    /// order given (site-major, a pure function of the configuration) and
    /// stably sorted by time, so simultaneous events deliver in part order
    /// for every shard count. Capacity sums so the merge never drops
    /// events; `recorded`/`dropped` sum over the parts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn merge_ordered(parts: Vec<Tracer>) -> Tracer {
        let filter = parts
            .first()
            .expect("merge_ordered needs at least one part")
            .filter
            .clone();
        let mut capacity = 0usize;
        let mut recorded = 0u64;
        let mut dropped = 0u64;
        let mut buf: Vec<TraceEvent> = Vec::with_capacity(parts.iter().map(Tracer::len).sum());
        for part in &parts {
            capacity += part.capacity;
            recorded += part.recorded;
            dropped += part.dropped;
            buf.extend(part.events().copied());
        }
        // Stable sort on time alone: ties keep concatenation order.
        buf.sort_by(|a, b| a.t_ms.partial_cmp(&b.t_ms).expect("finite trace times"));
        Tracer {
            filter,
            buf,
            capacity,
            head: 0,
            dropped,
            recorded,
        }
    }

    /// Renders the buffer as Chrome trace-event JSON (the `traceEvents`
    /// object format), loadable in Perfetto and `chrome://tracing`.
    ///
    /// Layout: one *process* per node (pid = node, named `node <i>`), one
    /// *thread* per transaction slab lane within it, so concurrent
    /// transactions stack on separate sub-tracks. Phase events render as
    /// complete slices (`ph:"X"` with start = completion − residence);
    /// submissions/completions as async span boundaries (`ph:"b"/"e"`,
    /// id = gid) so each transaction's whole lifetime — including
    /// cross-node hops — reads as one span; everything else as thread-
    /// scoped instants. Timestamps are microseconds, as the format
    /// requires.
    pub fn to_chrome_json(&self) -> String {
        self.to_chrome_json_with(None)
    }

    /// Like [`to_chrome_json`](Self::to_chrome_json), but additionally
    /// interleaves the samples of a [`MetricsRecorder`] as counter-track
    /// events (`ph:"C"`) under the same per-node processes, so the
    /// lifecycle trace and the sampled timeseries land on one Perfetto
    /// timeline.
    pub fn to_chrome_json_with(&self, metrics: Option<&crate::MetricsRecorder>) -> String {
        let mut out = String::with_capacity(self.buf.len() * 96 + 256);
        out.push_str("{\"traceEvents\": [\n");
        let mut nodes: Vec<u32> = self.events().map(|e| e.node).collect();
        if let Some(m) = metrics {
            nodes.extend(m.sampled_sites());
        }
        nodes.sort_unstable();
        nodes.dedup();
        let mut first = true;
        let mut push = |out: &mut String, line: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            out.push_str(&line);
        };
        for &n in &nodes {
            push(
                &mut out,
                format!(
                    "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {n}, \
                     \"args\": {{\"name\": \"node {n}\"}}}}"
                ),
            );
        }
        for ev in self.events() {
            let ts = crate::fmt_f64(ev.t_ms * 1000.0);
            let ty = ev.ty.label();
            let line = match ev.kind {
                TraceKind::Phase => {
                    let start = crate::fmt_f64((ev.t_ms - ev.dur_ms) * 1000.0);
                    let dur = crate::fmt_f64(ev.dur_ms * 1000.0);
                    format!(
                        "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"phase\", \
                         \"pid\": {}, \"tid\": {}, \"ts\": {start}, \"dur\": {dur}, \
                         \"args\": {{\"gid\": {}, \"ty\": \"{ty}\"}}}}",
                        crate::json_escape(ev.name),
                        ev.node,
                        ev.lane,
                        ev.gid,
                    )
                }
                TraceKind::TxSubmit | TraceKind::TxCommit | TraceKind::TxAbort => {
                    let ph = if ev.kind == TraceKind::TxSubmit {
                        "b"
                    } else {
                        "e"
                    };
                    format!(
                        "{{\"ph\": \"{ph}\", \"name\": \"{ty}\", \"cat\": \"tx\", \
                         \"id\": {}, \"pid\": {}, \"tid\": {}, \"ts\": {ts}, \
                         \"args\": {{\"gid\": {}, \"outcome\": \"{}\"}}}}",
                        ev.gid, ev.node, ev.lane, ev.gid, ev.name,
                    )
                }
                _ => format!(
                    "{{\"ph\": \"i\", \"s\": \"t\", \"name\": \"{}\", \"cat\": \"{}\", \
                     \"pid\": {}, \"tid\": {}, \"ts\": {ts}, \
                     \"args\": {{\"gid\": {}, \"ty\": \"{ty}\", \"a\": {}}}}}",
                    crate::json_escape(ev.name),
                    ev.kind.category(),
                    ev.node,
                    ev.lane,
                    ev.gid,
                    ev.a,
                ),
            };
            push(&mut out, line);
        }
        if let Some(m) = metrics {
            for line in m.chrome_counter_lines() {
                push(&mut out, line);
            }
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }

    /// Renders the buffer as JSONL: one self-describing JSON object per
    /// event, oldest first — the machine-consumption format.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.buf.len() * 128);
        for ev in self.events() {
            out.push_str(&format!(
                "{{\"t_ms\": {}, \"kind\": \"{}\", \"name\": \"{}\", \"node\": {}, \
                 \"gid\": {}, \"ty\": \"{}\", \"lane\": {}, \"a\": {}, \"dur_ms\": {}}}\n",
                crate::fmt_f64(ev.t_ms),
                ev.kind.label(),
                crate::json_escape(ev.name),
                ev.node,
                ev.gid,
                ev.ty.label(),
                ev.lane,
                ev.a,
                crate::fmt_f64(ev.dur_ms),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, kind: TraceKind, node: u32, gid: u64) -> TraceEvent {
        TraceEvent::new(t, kind, "x", node, gid, TxType::Lu)
    }

    #[test]
    fn filter_grammar_parses_categories_nodes_types() {
        let f = TraceFilter::parse("kind=lock|deadlock; node=0|2; ty=du|lro").unwrap();
        let mut e = ev(1.0, TraceKind::LockGrant, 0, 7);
        e.ty = TxType::Du;
        assert!(f.accepts(&e));
        e.node = 1;
        assert!(!f.accepts(&e), "node 1 excluded");
        e.node = 2;
        e.ty = TxType::Lu;
        assert!(!f.accepts(&e), "LU excluded");
        e.ty = TxType::Lro;
        assert!(f.accepts(&e));
        let p = ev(1.0, TraceKind::Phase, 0, 7);
        assert!(!f.accepts(&p), "phase kind excluded");
    }

    #[test]
    fn filter_accepts_exact_kind_labels_and_empty_spec() {
        let f = TraceFilter::parse("kind=lock_grant").unwrap();
        assert!(f.accepts(&ev(0.0, TraceKind::LockGrant, 0, 1)));
        assert!(!f.accepts(&ev(0.0, TraceKind::LockRequest, 0, 1)));
        let all = TraceFilter::parse("").unwrap();
        for k in TraceKind::ALL {
            assert!(all.accepts(&ev(0.0, k, 3, 1)));
        }
    }

    #[test]
    fn partition_and_replica_categories_filter() {
        let f = TraceFilter::parse("kind=partition").unwrap();
        assert!(f.accepts(&ev(0.0, TraceKind::PartitionSplit, 0, 0)));
        assert!(f.accepts(&ev(1.0, TraceKind::PartitionHeal, 0, 0)));
        assert!(!f.accepts(&ev(2.0, TraceKind::Failover, 0, 1)));
        let r = TraceFilter::parse("kind=replica|failover").unwrap();
        assert!(r.accepts(&ev(0.0, TraceKind::Failover, 0, 1)));
        assert!(r.accepts(&ev(0.0, TraceKind::ReplicaCatchup, 0, 0)));
        assert!(!r.accepts(&ev(0.0, TraceKind::NetSend, 0, 1)));
    }

    #[test]
    fn every_kind_has_a_distinct_bit_and_label() {
        let mut labels: Vec<&str> = TraceKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), TraceKind::ALL.len(), "duplicate labels");
        for k in TraceKind::ALL {
            let only = TraceFilter::parse(&format!("kind={}", k.label())).unwrap();
            for other in TraceKind::ALL {
                assert_eq!(
                    only.accepts(&ev(0.0, other, 0, 0)),
                    other == k,
                    "mask bit collision between {k:?} and {other:?}"
                );
            }
        }
    }

    #[test]
    fn filter_grammar_rejects_garbage() {
        assert!(TraceFilter::parse("kind=banana").is_err());
        assert!(TraceFilter::parse("node=minus-one").is_err());
        assert!(TraceFilter::parse("ty=xyz").is_err());
        assert!(TraceFilter::parse("color=red").is_err());
        assert!(TraceFilter::parse("kindlock").is_err());
    }

    #[test]
    fn ring_buffer_keeps_tail_and_counts_drops() {
        let mut tr = Tracer::new(TraceConfig {
            filter: TraceFilter::all(),
            capacity: 4,
        });
        for i in 0..10u64 {
            tr.record(ev(i as f64, TraceKind::NetSend, 0, i));
        }
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.recorded(), 10);
        assert_eq!(tr.dropped(), 6);
        let gids: Vec<u64> = tr.events().map(|e| e.gid).collect();
        assert_eq!(gids, vec![6, 7, 8, 9], "oldest-first tail of the run");
    }

    #[test]
    fn filtered_events_cost_nothing_in_the_buffer() {
        let mut tr = Tracer::new(TraceConfig {
            filter: TraceFilter::parse("kind=tx").unwrap(),
            capacity: 8,
        });
        tr.record(ev(0.0, TraceKind::Phase, 0, 1));
        tr.record(ev(1.0, TraceKind::TxSubmit, 0, 1));
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.recorded(), 1);
    }

    #[test]
    fn chrome_export_shape() {
        let mut tr = Tracer::new(TraceConfig::default());
        tr.record(TraceEvent::new(5.0, TraceKind::TxSubmit, "submit", 0, 42, TxType::Du).lane2(3));
        tr.record(
            TraceEvent::new(9.0, TraceKind::Phase, "DMIO", 0, 42, TxType::Du)
                .lane2(3)
                .dur(4.0),
        );
        tr.record(TraceEvent::new(9.5, TraceKind::TxCommit, "commit", 0, 42, TxType::Du).lane2(3));
        let json = tr.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"ph\": \"b\""), "async span open");
        assert!(json.contains("\"ph\": \"e\""), "async span close");
        assert!(json.contains("\"ph\": \"X\""), "phase slice");
        // Phase slice start = completion − residence, in µs.
        assert!(json.contains("\"ts\": 5000, \"dur\": 4000"));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn jsonl_export_one_line_per_event() {
        let mut tr = Tracer::new(TraceConfig::default());
        tr.record(ev(1.0, TraceKind::LockRequest, 1, 2).detail(17));
        tr.record(ev(2.0, TraceKind::LockGrant, 1, 2).detail(17));
        let jsonl = tr.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\": \"lock_request\""));
        assert!(lines[0].contains("\"a\": 17"));
        assert!(lines[1].contains("\"kind\": \"lock_grant\""));
    }

    #[test]
    fn merge_ordered_keeps_node_tags_and_breaks_ties_by_part_order() {
        let cap = |n| TraceConfig {
            filter: TraceFilter::all(),
            capacity: n,
        };
        // Part 0 holds a cross-site hop: its events carry nodes 0 and 3.
        let mut p0 = Tracer::new(cap(4));
        p0.record(ev(1.0, TraceKind::TxSubmit, 0, 10));
        p0.record(ev(2.0, TraceKind::NetSend, 3, 10));
        let mut p1 = Tracer::new(cap(4));
        p1.record(ev(1.0, TraceKind::TxSubmit, 1, 20));
        // Part 2 overflowed its ring: 5 recorded, the 2-event tail kept.
        let mut p2 = Tracer::new(cap(2));
        for i in 0..5u64 {
            p2.record(ev(i as f64, TraceKind::NetSend, 2, 30 + i));
        }
        let merged = Tracer::merge_ordered(vec![p0, p1, p2]);
        let seen: Vec<(f64, u32, u64)> = merged.events().map(|e| (e.t_ms, e.node, e.gid)).collect();
        // No re-tagging: node 3 survives; t = 1.0 tie keeps part order;
        // the parts interleave by time.
        assert_eq!(
            seen,
            vec![
                (1.0, 0, 10),
                (1.0, 1, 20),
                (2.0, 3, 10),
                (3.0, 2, 33),
                (4.0, 2, 34)
            ]
        );
        // Recorded and dropped counters sum; capacity pools across parts,
        // so re-recording into the merged ring never drops a kept event.
        assert_eq!(merged.recorded(), 8);
        assert_eq!(merged.dropped(), 3);
        assert_eq!(merged.capacity, 10);
    }

    #[test]
    fn merge_sites_sums_capacity_and_drop_counters() {
        let cap = |n| TraceConfig {
            filter: TraceFilter::all(),
            capacity: n,
        };
        // Site 0 overflowed (6 recorded, 3 kept); site 1 kept all it saw;
        // site 2 saw nothing but still lends its capacity to the merge.
        let mut s0 = Tracer::new(cap(3));
        for i in 0..6u64 {
            s0.record(ev(i as f64, TraceKind::NetSend, 0, i));
        }
        let mut s1 = Tracer::new(cap(5));
        s1.record(ev(0.5, TraceKind::TxSubmit, 1, 100));
        s1.record(ev(4.5, TraceKind::TxCommit, 1, 100));
        let s2 = Tracer::new(cap(4));
        let mut merged = Tracer::merge_ordered(vec![s0, s1, s2]);
        assert_eq!(merged.len(), 5);
        assert_eq!(merged.recorded(), 8);
        assert_eq!(merged.dropped(), 3);
        assert_eq!(merged.capacity, 12);
        // The pooled capacity leaves headroom: filling it drops nothing,
        // and only the first event past it counts as a drop.
        for i in 0..7u64 {
            merged.record(ev(10.0 + i as f64, TraceKind::NetSend, 2, 200 + i));
        }
        assert_eq!(merged.len(), 12);
        assert_eq!(merged.dropped(), 3);
        merged.record(ev(20.0, TraceKind::NetSend, 2, 300));
        assert_eq!(merged.dropped(), 4);
        assert_eq!(merged.recorded(), 16);
    }

    #[test]
    fn export_is_deterministic() {
        let mk = || {
            let mut tr = Tracer::new(TraceConfig::default());
            for i in 0..100u64 {
                tr.record(ev(
                    i as f64 * 0.1,
                    TraceKind::ALL[i as usize % TraceKind::ALL.len()],
                    0,
                    i,
                ));
            }
            (tr.to_chrome_json(), tr.to_jsonl())
        };
        assert_eq!(mk(), mk());
    }
}
