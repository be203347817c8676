//! Typed run-health metrics: a deterministic registry of counters,
//! gauges and histograms with an OpenMetrics text exporter.
//!
//! # Design
//!
//! * The registry is a plain value (no globals, no atomics): each
//!   analysis run builds one from its final
//!   measurements, so aggregation is deterministic for any worker
//!   count — samples are keyed by `(family, sorted labels)` in
//!   `BTreeMap`s, never by insertion or thread order.
//! * Export renders the [OpenMetrics text format]: `# TYPE` / `# HELP`
//!   metadata per family, counter samples with the `_total` suffix,
//!   histogram `_bucket`/`_sum`/`_count` series with the `le` label
//!   last, and the mandatory `# EOF` terminator — scrape-ready for the
//!   future `canary serve` daemon.
//! * Determinism is a *classified* contract, mirroring how the SARIF
//!   manifest quarantines `timings`:
//!   - **volatile** families ([`family_is_volatile`]: wall-clock
//!     `_seconds` and `_rss_` memory families) legitimately differ
//!     between runs; [`normalize_openmetrics`] zeroes them so
//!     everything left must be byte-identical across `--threads`
//!     values and solver strategies;
//!   - **strategy-sensitive** families
//!     ([`family_is_strategy_sensitive`]: the `canary_solver_*` CDCL
//!     work counters) are deterministic for a fixed strategy but
//!     differ between `fresh` and `incremental` by design — that
//!     difference is the PR-4 speedup. Cross-strategy comparisons
//!     normalize these too.
//!
//! [OpenMetrics text format]: https://github.com/OpenObservability/OpenMetrics
//!
//! # Examples
//!
//! ```
//! use canary_trace::metrics::MetricsRegistry;
//!
//! let mut reg = MetricsRegistry::new();
//! reg.set_gauge("canary_vfg_nodes", "VFG node count", &[], 42.0);
//! reg.add_counter("canary_detect_queries", "SMT queries issued", &[], 3.0);
//! reg.observe(
//!     "canary_solver_query_decisions",
//!     "CDCL decisions per query",
//!     &[("kind", "use-after-free")],
//!     &[1.0, 4.0, 16.0],
//!     2.0,
//! );
//! let text = reg.to_openmetrics();
//! assert!(text.contains("canary_detect_queries_total 3"));
//! assert!(text.ends_with("# EOF\n"));
//! ```

use std::collections::BTreeMap;

/// Bucket upper bounds for CDCL-work (decision count) histograms: a
/// zero bucket for memoized/prefiltered queries, then powers of four.
pub const DECISION_BUCKETS: [f64; 8] = [0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0];

/// Bucket upper bounds for solve-time histograms, in seconds.
pub const SECONDS_BUCKETS: [f64; 7] = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// The OpenMetrics type of a metric family.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically accumulated count (`_total` sample suffix).
    Counter,
    /// Point-in-time measurement.
    Gauge,
    /// Distribution over fixed buckets (`_bucket`/`_sum`/`_count`).
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One cumulative histogram over fixed bucket bounds.
#[derive(Clone, Debug, Default)]
struct Hist {
    /// Upper bounds of the finite buckets, ascending.
    bounds: Vec<f64>,
    /// Observations `<= bounds[i]` (non-cumulative; export accumulates).
    counts: Vec<u64>,
    /// Observations above every finite bound (the `+Inf` bucket).
    inf: u64,
    /// Sum of all observed values.
    sum: f64,
    /// Total observations.
    count: u64,
}

#[derive(Clone, Debug)]
enum Sample {
    Value(f64),
    Hist(Hist),
}

#[derive(Clone, Debug)]
struct Family {
    kind: MetricKind,
    help: String,
    /// Samples keyed by the canonical (sorted) label rendering.
    samples: BTreeMap<String, Sample>,
}

/// A deterministic registry of metric families.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
}

/// Renders a label set canonically: keys sorted, `k="v"` joined with
/// commas, no surrounding braces (the exporter adds them).
fn canonical_labels(labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders a sample value: integers without a fractional part, floats
/// via the (deterministic) shortest `f64` display otherwise.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of metric families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// Whether no family has been registered.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    fn family_mut(&mut self, name: &str, kind: MetricKind, help: &str) -> &mut Family {
        let f = self.families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            samples: BTreeMap::new(),
        });
        debug_assert_eq!(f.kind, kind, "metric family {name} re-registered with a new kind");
        f
    }

    /// Sets a gauge sample (last write wins).
    pub fn set_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let key = canonical_labels(labels);
        self.family_mut(name, MetricKind::Gauge, help)
            .samples
            .insert(key, Sample::Value(value));
    }

    /// Adds to a counter sample (created at zero).
    pub fn add_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let key = canonical_labels(labels);
        let fam = self.family_mut(name, MetricKind::Counter, help);
        match fam.samples.entry(key).or_insert(Sample::Value(0.0)) {
            Sample::Value(v) => *v += value,
            Sample::Hist(_) => unreachable!("counter family holds scalar samples"),
        }
    }

    /// Observes one value into a histogram sample. The first
    /// observation fixes the bucket bounds; later observations must
    /// pass the same bounds.
    pub fn observe(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
        value: f64,
    ) {
        let key = canonical_labels(labels);
        let fam = self.family_mut(name, MetricKind::Histogram, help);
        let h = match fam.samples.entry(key).or_insert_with(|| {
            Sample::Hist(Hist {
                bounds: bounds.to_vec(),
                counts: vec![0; bounds.len()],
                ..Hist::default()
            })
        }) {
            Sample::Hist(h) => h,
            Sample::Value(_) => unreachable!("histogram family holds histogram samples"),
        };
        debug_assert_eq!(h.bounds, bounds, "histogram {name} observed with new bounds");
        match h.bounds.iter().position(|&b| value <= b) {
            Some(i) => h.counts[i] += 1,
            None => h.inf += 1,
        }
        h.sum += value;
        h.count += 1;
    }

    /// Renders the registry as an OpenMetrics text document ending in
    /// `# EOF`. Families, label sets and buckets are all emitted in
    /// canonical sorted order — the document is byte-deterministic for
    /// identical contents.
    pub fn to_openmetrics(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind.as_str()));
            out.push_str(&format!("# HELP {name} {}\n", fam.help));
            for (labels, sample) in &fam.samples {
                match sample {
                    Sample::Value(v) => {
                        let suffix = match fam.kind {
                            MetricKind::Counter => "_total",
                            _ => "",
                        };
                        if labels.is_empty() {
                            out.push_str(&format!("{name}{suffix} {}\n", fmt_value(*v)));
                        } else {
                            out.push_str(&format!(
                                "{name}{suffix}{{{labels}}} {}\n",
                                fmt_value(*v)
                            ));
                        }
                    }
                    Sample::Hist(h) => {
                        let with_le = |le: &str| {
                            if labels.is_empty() {
                                format!("le=\"{le}\"")
                            } else {
                                format!("{labels},le=\"{le}\"")
                            }
                        };
                        let mut cum = 0u64;
                        for (b, c) in h.bounds.iter().zip(&h.counts) {
                            cum += c;
                            out.push_str(&format!(
                                "{name}_bucket{{{}}} {cum}\n",
                                with_le(&fmt_value(*b))
                            ));
                        }
                        cum += h.inf;
                        out.push_str(&format!("{name}_bucket{{{}}} {cum}\n", with_le("+Inf")));
                        let tail = |s: &str| {
                            if labels.is_empty() {
                                format!("{name}_{s}")
                            } else {
                                format!("{name}_{s}{{{labels}}}")
                            }
                        };
                        out.push_str(&format!("{} {}\n", tail("sum"), fmt_value(h.sum)));
                        out.push_str(&format!("{} {}\n", tail("count"), h.count));
                    }
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }

    /// Renders the registry as the versioned JSON block embedded under
    /// `metrics.registry` in `--json` output.
    pub fn to_json(&self) -> serde_json::Value {
        let families: Vec<serde_json::Value> = self
            .families
            .iter()
            .map(|(name, fam)| {
                let samples: Vec<serde_json::Value> = fam
                    .samples
                    .iter()
                    .map(|(labels, sample)| match sample {
                        Sample::Value(v) => serde_json::json!({
                            "labels": labels,
                            "value": v,
                        }),
                        Sample::Hist(h) => {
                            let buckets: Vec<serde_json::Value> = h
                                .bounds
                                .iter()
                                .zip(&h.counts)
                                .map(|(b, c)| serde_json::json!([b, c]))
                                .collect();
                            serde_json::json!({
                                "labels": labels,
                                "buckets": buckets,
                                "inf": h.inf,
                                "sum": h.sum,
                                "count": h.count,
                            })
                        }
                    })
                    .collect();
                serde_json::json!({
                    "name": name,
                    "kind": fam.kind.as_str(),
                    "help": fam.help,
                    "samples": samples,
                })
            })
            .collect();
        serde_json::json!({
            "registry_version": 1,
            "families": families,
        })
    }
}

/// Whether a metric family is **volatile** — nondeterministic across
/// runs by nature (wall-clock times, OS memory accounting, worker
/// scheduling) and therefore *dropped wholesale* by the normalization
/// helpers, exactly like the SARIF manifest quarantines `timings`.
/// Dropping (rather than zeroing) matters because some volatile
/// families are conditionally emitted — `canary_dispatch_*` exists
/// only when a query-family dispatch actually ran — so even their
/// `# TYPE`/`# HELP` headers differ across knobs.
pub fn family_is_volatile(name: &str) -> bool {
    name.ends_with("_seconds") || name.contains("_rss_") || name.starts_with("canary_dispatch_")
}

/// Whether a metric family is **strategy-sensitive** — deterministic
/// for a fixed `--solver-strategy` but intentionally different between
/// `fresh` and `incremental` (the CDCL work the incremental back-end
/// saves). Cross-strategy byte comparisons must normalize these too.
pub fn family_is_strategy_sensitive(name: &str) -> bool {
    name.starts_with("canary_solver_")
}

/// Whether a metric family is a **configuration echo** — it records a
/// run knob (worker counts) rather than a property of the analyzed
/// program. Deterministic for fixed flags, but the determinism
/// comparisons *vary* exactly those knobs, so the normalizers zero
/// these too — the SARIF manifest's `threads` field plays the same
/// role there.
pub fn family_is_config(name: &str) -> bool {
    name == "canary_worker_threads" || name == "canary_phase_workers"
}

/// The family name behind one OpenMetrics sample line, with the
/// `_total` / `_bucket` / `_sum` / `_count` sample suffixes stripped;
/// `None` for comment and blank lines.
fn sample_family(line: &str) -> Option<&str> {
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let end = line.find(['{', ' '])?;
    let mut name = &line[..end];
    for suffix in ["_total", "_bucket", "_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            name = stripped;
            break;
        }
    }
    Some(name)
}

/// The family name behind a `# TYPE` / `# HELP` header line; `None`
/// for sample, blank and `# EOF` lines.
fn comment_family(line: &str) -> Option<&str> {
    let rest = line
        .strip_prefix("# TYPE ")
        .or_else(|| line.strip_prefix("# HELP "))?;
    Some(rest.split(' ').next().unwrap_or(rest))
}

/// Normalizes an OpenMetrics document for determinism comparisons:
/// *drops* volatile families entirely (headers and samples — some,
/// like `canary_dispatch_*`, are conditionally emitted, so even their
/// presence is knob-dependent) and zeroes the sample values of
/// configuration-echo families (and, when `cross_strategy` is set, the
/// strategy-sensitive solver-work families, whose presence is
/// unconditional). Everything left must be byte-identical across
/// `--threads` values — and, with `cross_strategy`, across solver
/// strategies.
pub fn normalize_openmetrics(text: &str, cross_strategy: bool) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let fam = sample_family(line).or_else(|| comment_family(line));
        if fam.is_some_and(family_is_volatile) {
            continue;
        }
        let zero = sample_family(line).is_some_and(|fam| {
            family_is_config(fam) || (cross_strategy && family_is_strategy_sensitive(fam))
        });
        match (zero, line.rsplit_once(' ')) {
            (true, Some((head, _))) => {
                out.push_str(head);
                out.push_str(" 0\n");
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// [`normalize_openmetrics`] for the JSON rendering: drops volatile
/// families and zeroes the same knob-echoing families in a parsed
/// `registry` block (as produced by [`MetricsRegistry::to_json`]) in
/// place.
pub fn normalize_registry_json(doc: &mut serde_json::Value, cross_strategy: bool) {
    let serde_json::Value::Object(top) = doc else {
        return;
    };
    let Some(serde_json::Value::Array(families)) = top.get_mut("families") else {
        return;
    };
    families.retain(|fam| {
        !fam["name"].as_str().is_some_and(family_is_volatile)
    });
    for fam in families {
        let zero = fam["name"].as_str().is_some_and(|name| {
            family_is_config(name) || (cross_strategy && family_is_strategy_sensitive(name))
        });
        if !zero {
            continue;
        }
        let serde_json::Value::Object(fam) = fam else { continue };
        let Some(serde_json::Value::Array(samples)) = fam.get_mut("samples") else {
            continue;
        };
        for s in samples {
            let serde_json::Value::Object(obj) = s else { continue };
            if obj.contains_key("value") {
                obj.insert("value".into(), serde_json::json!(0.0));
            }
            if let Some(serde_json::Value::Array(buckets)) = obj.get_mut("buckets") {
                for b in buckets {
                    if let serde_json::Value::Array(pair) = b {
                        if pair.len() == 2 {
                            pair[1] = serde_json::json!(0);
                        }
                    }
                }
            }
            for k in ["inf", "sum", "count"] {
                if obj.contains_key(k) {
                    obj.insert(k.into(), serde_json::json!(0));
                }
            }
        }
    }
}

/// The process-lifetime peak resident-set size in bytes (`VmHWM` from
/// `/proc/self/status` on Linux; 0 where unavailable). Monotone over a
/// run, so a sample at the end of each phase gives a per-phase
/// high-water mark. **Volatile** by classification — never compared
/// across runs.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return kb * 1024;
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render_with_total_suffix() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("canary_x", "xs", &[], 2.0);
        reg.add_counter("canary_x", "xs", &[], 3.0);
        let text = reg.to_openmetrics();
        assert!(text.contains("# TYPE canary_x counter\n"));
        assert!(text.contains("canary_x_total 5\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn labels_render_sorted_and_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("g", "a gauge", &[("z", "1"), ("a", "two")], 7.5);
        let text = reg.to_openmetrics();
        assert!(text.contains("g{a=\"two\",z=\"1\"} 7.5\n"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let mut reg = MetricsRegistry::new();
        for v in [0.5, 3.0, 100.0] {
            reg.observe("h", "hist", &[("kind", "uaf")], &[1.0, 4.0], v);
        }
        let text = reg.to_openmetrics();
        assert!(text.contains("h_bucket{kind=\"uaf\",le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("h_bucket{kind=\"uaf\",le=\"4\"} 2\n"), "{text}");
        assert!(text.contains("h_bucket{kind=\"uaf\",le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("h_sum{kind=\"uaf\"} 103.5\n"), "{text}");
        assert!(text.contains("h_count{kind=\"uaf\"} 3\n"), "{text}");
    }

    #[test]
    fn export_order_is_insertion_independent() {
        let mut a = MetricsRegistry::new();
        a.set_gauge("m_b", "b", &[], 1.0);
        a.set_gauge("m_a", "a", &[("l", "2")], 2.0);
        a.set_gauge("m_a", "a", &[("l", "1")], 3.0);
        let mut b = MetricsRegistry::new();
        b.set_gauge("m_a", "a", &[("l", "1")], 3.0);
        b.set_gauge("m_b", "b", &[], 1.0);
        b.set_gauge("m_a", "a", &[("l", "2")], 2.0);
        assert_eq!(a.to_openmetrics(), b.to_openmetrics());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn volatile_families_are_dropped_wholesale() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("canary_phase_wall_seconds", "wall", &[("phase", "alg1")], 1.25);
        reg.set_gauge("canary_phase_peak_rss_bytes", "rss", &[("phase", "alg1")], 4096.0);
        reg.set_gauge(
            "canary_dispatch_worker_families",
            "loads",
            &[("worker", "0")],
            3.0,
        );
        reg.set_gauge("canary_vfg_nodes", "nodes", &[], 11.0);
        reg.add_counter("canary_solver_decisions", "cdcl", &[], 9.0);
        let text = reg.to_openmetrics();
        let norm = normalize_openmetrics(&text, false);
        // Conditionally-emitted volatile families (dispatch loads)
        // would leave differing # TYPE/# HELP headers if merely
        // zeroed, so the whole block — headers included — must go.
        assert!(!norm.contains("canary_phase_wall_seconds"), "{norm}");
        assert!(!norm.contains("canary_phase_peak_rss_bytes"), "{norm}");
        assert!(!norm.contains("canary_dispatch_worker_families"), "{norm}");
        assert!(norm.contains("canary_vfg_nodes 11\n"));
        assert!(norm.contains("canary_solver_decisions_total 9\n"));
        let cross = normalize_openmetrics(&text, true);
        assert!(cross.contains("canary_solver_decisions_total 0\n"));
        assert!(cross.contains("canary_vfg_nodes 11\n"));
        // A registry without the conditional family normalizes to the
        // same text as one with it.
        let mut bare = MetricsRegistry::new();
        bare.set_gauge("canary_vfg_nodes", "nodes", &[], 11.0);
        bare.add_counter("canary_solver_decisions", "cdcl", &[], 9.0);
        assert_eq!(norm, normalize_openmetrics(&bare.to_openmetrics(), false));
    }

    #[test]
    fn json_normalization_drops_the_same_families() {
        let mut reg = MetricsRegistry::new();
        reg.observe(
            "canary_smt_query_seconds",
            "solve wall",
            &[("kind", "uaf")],
            &SECONDS_BUCKETS,
            0.002,
        );
        reg.set_gauge(
            "canary_dispatch_worker_families",
            "families",
            &[("worker", "1")],
            2.0,
        );
        reg.set_gauge("canary_vfg_nodes", "nodes", &[], 5.0);
        let mut doc = reg.to_json();
        normalize_registry_json(&mut doc, false);
        let fams = doc["families"].as_array().unwrap();
        assert!(!fams
            .iter()
            .any(|f| f["name"] == "canary_smt_query_seconds"
                || f["name"] == "canary_dispatch_worker_families"));
        let gauge = fams.iter().find(|f| f["name"] == "canary_vfg_nodes").unwrap();
        assert_eq!(gauge["samples"][0]["value"].as_f64(), Some(5.0));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes() > 0);
        }
    }

    #[test]
    fn classification_rules() {
        assert!(family_is_volatile("canary_phase_wall_seconds"));
        assert!(family_is_volatile("canary_phase_peak_rss_bytes"));
        assert!(family_is_volatile("canary_dispatch_worker_families"));
        assert!(!family_is_volatile("canary_vfg_bytes"));
        assert!(!family_is_volatile("canary_audit_candidates"));
        assert!(family_is_strategy_sensitive("canary_solver_memo_hits"));
        assert!(!family_is_strategy_sensitive("canary_detect_queries"));
        assert!(family_is_config("canary_worker_threads"));
        assert!(family_is_config("canary_phase_workers"));
        assert!(!family_is_config("canary_phase_tasks"));
    }

    #[test]
    fn config_echo_families_are_normalized() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("canary_worker_threads", "threads", &[], 4.0);
        reg.set_gauge("canary_phase_workers", "workers", &[("phase", "detect")], 4.0);
        reg.set_gauge("canary_phase_tasks", "tasks", &[("phase", "detect")], 7.0);
        let norm = normalize_openmetrics(&reg.to_openmetrics(), false);
        assert!(norm.contains("canary_worker_threads 0\n"));
        assert!(norm.contains("canary_phase_workers{phase=\"detect\"} 0\n"));
        assert!(norm.contains("canary_phase_tasks{phase=\"detect\"} 7\n"));
        let mut doc = reg.to_json();
        normalize_registry_json(&mut doc, false);
        let fams = doc["families"].as_array().unwrap();
        let threads = fams
            .iter()
            .find(|f| f["name"] == "canary_worker_threads")
            .unwrap();
        assert_eq!(threads["samples"][0]["value"].as_f64(), Some(0.0));
        let tasks = fams.iter().find(|f| f["name"] == "canary_phase_tasks").unwrap();
        assert_eq!(tasks["samples"][0]["value"].as_f64(), Some(7.0));
    }
}
