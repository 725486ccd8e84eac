//! A hand-rolled lint for Prometheus text exposition format 0.0.4.
//!
//! Used three ways: unit tests lint rendered registries, integration
//! tests lint live scrapes of [`MetricsServer`](crate::MetricsServer),
//! and CI pipes `pema-cli metrics` scrapes through it mid-run. The
//! checks encode the format rules our own exporter must uphold:
//!
//! * every sample belongs to a family with `# HELP` and `# TYPE`
//!   declared before its first sample;
//! * label blocks parse, with escaping limited to `\\`, `\"`, `\n`,
//!   exactly one `,` between pairs, and well-formed label names — so
//!   an unescaped quote or newline smuggled through a label value is
//!   flagged instead of silently resynchronizing into phantom labels;
//! * no duplicate series;
//! * counter samples are finite and non-negative;
//! * histogram series have ascending `le` bounds, cumulative
//!   (non-decreasing) bucket counts, a `+Inf` bucket that equals
//!   `_count`, and a `_sum`;
//! * given a previous scrape, counters — including histogram buckets,
//!   counts, and sums (all our observations are non-negative
//!   durations) — are monotone.

use std::collections::{BTreeMap, HashMap};

/// Outcome of a lint pass: empty `violations` means a clean scrape.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Human-readable violations, one per finding.
    pub violations: Vec<String>,
}

impl LintReport {
    /// True when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    /// Label pairs in exposition order.
    labels: Vec<(String, String)>,
    value: f64,
}

impl Sample {
    /// Canonical series identity: name plus sorted label pairs.
    fn series_id(&self) -> String {
        let mut labels = self.labels.clone();
        labels.sort();
        let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
        format!("{}{{{}}}", self.name, pairs.join(","))
    }

    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Identity under `family` with the `le` label dropped — groups a
    /// histogram's `_bucket`/`_sum`/`_count` samples into one series.
    fn hist_series_id(&self, family: &str) -> String {
        let mut labels = self.labels.clone();
        labels.retain(|(k, _)| k != "le");
        labels.sort();
        let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
        format!("{family}{{{}}}", pairs.join(","))
    }
}

struct Parsed {
    help: HashMap<String, usize>,
    kind: HashMap<String, (String, usize)>,
    samples: Vec<(usize, Sample)>,
    errors: Vec<String>,
}

/// Lints `text`; with `previous` (an earlier scrape of the same
/// endpoint) also checks counter monotonicity across the two.
pub fn lint(text: &str, previous: Option<&str>) -> LintReport {
    let mut report = LintReport::default();
    let cur = parse_exposition(text);
    report.violations.extend(cur.errors.iter().cloned());

    // HELP/TYPE presence, ordering, and validity.
    let mut first_sample_line: HashMap<String, usize> = HashMap::new();
    for (line, s) in &cur.samples {
        let fam = family_of(&s.name, &cur.kind);
        first_sample_line.entry(fam).or_insert(*line);
    }
    for (fam, line) in &first_sample_line {
        match cur.help.get(fam) {
            None => report
                .violations
                .push(format!("line {line}: family {fam} has no # HELP")),
            Some(h) if h > line => report.violations.push(format!(
                "line {line}: # HELP {fam} appears after its first sample"
            )),
            _ => {}
        }
        match cur.kind.get(fam) {
            None => report
                .violations
                .push(format!("line {line}: family {fam} has no # TYPE")),
            Some((_, t)) if t > line => report.violations.push(format!(
                "line {line}: # TYPE {fam} appears after its first sample"
            )),
            _ => {}
        }
    }
    for (fam, (kind, line)) in &cur.kind {
        if !matches!(
            kind.as_str(),
            "counter" | "gauge" | "histogram" | "summary" | "untyped"
        ) {
            report.violations.push(format!(
                "line {line}: family {fam} has unknown type {kind:?}"
            ));
        }
    }

    // Duplicate series.
    let mut seen: HashMap<String, usize> = HashMap::new();
    for (line, s) in &cur.samples {
        if let Some(prev) = seen.insert(s.series_id(), *line) {
            report.violations.push(format!(
                "line {line}: duplicate series {} (first at line {prev})",
                s.series_id()
            ));
        }
    }

    // Counter sanity.
    for (line, s) in &cur.samples {
        let fam = family_of(&s.name, &cur.kind);
        let is_counterish = match cur.kind.get(&fam).map(|(k, _)| k.as_str()) {
            Some("counter") => true,
            Some("histogram") => s.name != fam, // _bucket/_sum/_count
            _ => false,
        };
        if is_counterish && !(s.value >= 0.0 && s.value.is_finite()) {
            report.violations.push(format!(
                "line {line}: counter sample {} has non-monotone-capable value {}",
                s.series_id(),
                s.value
            ));
        }
    }

    check_histograms(&cur, &mut report);

    if let Some(prev_text) = previous {
        let prev = parse_exposition(prev_text);
        if prev.errors.is_empty() {
            check_monotone(&prev, &cur, &mut report);
        } else {
            report
                .violations
                .push("previous scrape failed to parse; monotonicity not checked".into());
        }
    }

    report
}

/// Maps a sample name to its family: `x_bucket`/`x_sum`/`x_count`
/// collapse to `x` when `x` is a declared histogram.
fn family_of(name: &str, kinds: &HashMap<String, (String, usize)>) -> String {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if kinds.get(base).map(|(k, _)| k.as_str()) == Some("histogram") {
                return base.to_string();
            }
        }
    }
    name.to_string()
}

fn check_histograms(cur: &Parsed, report: &mut LintReport) {
    // Group bucket samples per series (labels minus `le`), in
    // exposition order.
    let mut buckets: BTreeMap<String, Vec<(usize, f64, f64)>> = BTreeMap::new();
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for (line, s) in &cur.samples {
        let fam = family_of(&s.name, &cur.kind);
        if cur.kind.get(&fam).map(|(k, _)| k.as_str()) != Some("histogram") || s.name == fam {
            continue;
        }
        let base = s.hist_series_id(&fam);
        if s.name.ends_with("_bucket") {
            let Some(le) = s.label("le") else {
                report
                    .violations
                    .push(format!("line {line}: bucket sample without le label"));
                continue;
            };
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                match le.parse::<f64>() {
                    Ok(b) => b,
                    Err(_) => {
                        report
                            .violations
                            .push(format!("line {line}: unparseable le {le:?}"));
                        continue;
                    }
                }
            };
            buckets
                .entry(base)
                .or_default()
                .push((*line, bound, s.value));
        } else if s.name.ends_with("_sum") {
            sums.insert(base, s.value);
        } else if s.name.ends_with("_count") {
            counts.insert(base, s.value);
        }
    }
    for (base, bs) in &buckets {
        let name = base.as_str();
        for w in bs.windows(2) {
            if w[1].1 <= w[0].1 {
                report.violations.push(format!(
                    "line {}: histogram {name} le bounds not ascending ({} after {})",
                    w[1].0, w[1].1, w[0].1
                ));
            }
            if w[1].2 < w[0].2 {
                report.violations.push(format!(
                    "line {}: histogram {name} bucket counts not cumulative ({} < {})",
                    w[1].0, w[1].2, w[0].2
                ));
            }
        }
        let inf = bs.iter().find(|(_, b, _)| b.is_infinite());
        match inf {
            None => report
                .violations
                .push(format!("histogram {name} has no +Inf bucket")),
            Some((_, _, inf_count)) => match counts.get(base) {
                None => report
                    .violations
                    .push(format!("histogram {name} has no _count sample")),
                Some(c) if c != inf_count => report.violations.push(format!(
                    "histogram {name}: _count {c} != +Inf bucket {inf_count}"
                )),
                _ => {}
            },
        }
        if !sums.contains_key(base) {
            report
                .violations
                .push(format!("histogram {name} has no _sum sample"));
        }
    }
}

fn check_monotone(prev: &Parsed, cur: &Parsed, report: &mut LintReport) {
    let counterish = |p: &Parsed, s: &Sample| -> bool {
        let fam = family_of(&s.name, &p.kind);
        match p.kind.get(&fam).map(|(k, _)| k.as_str()) {
            Some("counter") => true,
            Some("histogram") => s.name != fam,
            _ => false,
        }
    };
    let prev_vals: HashMap<String, f64> = prev
        .samples
        .iter()
        .filter(|(_, s)| counterish(prev, s))
        .map(|(_, s)| (s.series_id(), s.value))
        .collect();
    for (line, s) in &cur.samples {
        if !counterish(cur, s) {
            continue;
        }
        if let Some(&before) = prev_vals.get(&s.series_id()) {
            if s.value < before {
                report.violations.push(format!(
                    "line {line}: counter {} went backwards ({} -> {})",
                    s.series_id(),
                    before,
                    s.value
                ));
            }
        }
    }
}

fn parse_exposition(text: &str) -> Parsed {
    let mut p = Parsed {
        help: HashMap::new(),
        kind: HashMap::new(),
        samples: Vec::new(),
        errors: Vec::new(),
    };
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let l = raw.trim_end();
        if l.is_empty() {
            continue;
        }
        if let Some(rest) = l.strip_prefix("# HELP ") {
            match rest.split_once(' ') {
                Some((name, _)) => {
                    p.help.entry(name.to_string()).or_insert(line);
                }
                None => {
                    p.help.entry(rest.to_string()).or_insert(line);
                }
            }
        } else if let Some(rest) = l.strip_prefix("# TYPE ") {
            match rest.split_once(' ') {
                Some((name, kind)) => {
                    p.kind
                        .entry(name.to_string())
                        .or_insert((kind.trim().to_string(), line));
                }
                None => p.errors.push(format!("line {line}: # TYPE without a kind")),
            }
        } else if l.starts_with('#') {
            // Other comments are legal and ignored.
        } else {
            match parse_sample(l) {
                Ok(s) => p.samples.push((line, s)),
                Err(e) => p.errors.push(format!("line {line}: {e}")),
            }
        }
    }
    p
}

fn parse_sample(l: &str) -> Result<Sample, String> {
    let bytes = l.as_bytes();
    let name_end = bytes
        .iter()
        .position(|&b| b == b'{' || b == b' ')
        .ok_or("sample has no value")?;
    let name = &l[..name_end];
    if name.is_empty() {
        return Err("empty metric name".into());
    }
    let mut labels = Vec::new();
    let mut pos = name_end;
    if bytes[pos] == b'{' {
        pos += 1;
        let mut first = true;
        loop {
            if bytes.get(pos) == Some(&b'}') {
                pos += 1;
                break;
            }
            if !first {
                // Exactly one ',' between pairs. An unescaped quote
                // inside a label value lands here: the value parser
                // stops at the stray quote and the next byte is not a
                // separator — flag it instead of resynchronizing into
                // garbage labels.
                if bytes.get(pos) != Some(&b',') {
                    return Err(format!(
                        "expected ',' or '}}' after label value, found {:?} \
                         (unescaped quote in a label value?)",
                        l[pos..].chars().next().unwrap_or('?')
                    ));
                }
                pos += 1;
                // A trailing comma before '}' is legal exposition.
                if bytes.get(pos) == Some(&b'}') {
                    pos += 1;
                    break;
                }
            }
            first = false;
            let key_end = l[pos..]
                .find('=')
                .map(|o| pos + o)
                .ok_or("label without '='")?;
            let key = l[pos..key_end].to_string();
            if key.is_empty() {
                return Err("empty label name".into());
            }
            if !key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
                || key.as_bytes()[0].is_ascii_digit()
            {
                return Err(format!("invalid label name {key:?}"));
            }
            pos = key_end + 1;
            if bytes.get(pos) != Some(&b'"') {
                return Err("label value not quoted".into());
            }
            pos += 1;
            let mut value = String::new();
            loop {
                match bytes.get(pos) {
                    Some(b'"') => {
                        pos += 1;
                        break;
                    }
                    Some(b'\\') => {
                        match bytes.get(pos + 1) {
                            Some(b'\\') => value.push('\\'),
                            Some(b'"') => value.push('"'),
                            Some(b'n') => value.push('\n'),
                            other => {
                                return Err(format!(
                                    "bad escape \\{}",
                                    other.map(|&b| b as char).unwrap_or('?')
                                ))
                            }
                        }
                        pos += 2;
                    }
                    Some(_) => {
                        // Consume one UTF-8 char.
                        let rest = &l[pos..];
                        let c = rest.chars().next().unwrap();
                        value.push(c);
                        pos += c.len_utf8();
                    }
                    None => return Err("unterminated label value".into()),
                }
            }
            labels.push((key, value));
        }
    }
    let rest = l[pos..].trim();
    // An optional timestamp may follow the value.
    let value_tok = rest
        .split_whitespace()
        .next()
        .ok_or("sample has no value")?;
    let value = match value_tok {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        tok => tok
            .parse()
            .map_err(|_| format!("unparseable sample value {tok:?}"))?,
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Telemetry;

    fn demo() -> Telemetry {
        let t = Telemetry::new();
        t.counter("pema_demo_total", "demo counter", &[("m", "a")])
            .add(3.0);
        t.gauge("pema_demo_depth", "demo gauge", &[]).set(2.0);
        let h = t.histogram("pema_demo_seconds", "demo hist", &[], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        t
    }

    #[test]
    fn rendered_registry_is_clean() {
        let r = lint(&demo().render(), None);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn monotone_scrapes_are_clean_and_regressions_flagged() {
        let t = demo();
        let first = t.render();
        t.counter("pema_demo_total", "demo counter", &[("m", "a")])
            .inc();
        t.histogram("pema_demo_seconds", "demo hist", &[], &[0.1, 1.0])
            .observe(5.0);
        let second = t.render();
        let r = lint(&second, Some(&first));
        assert!(r.is_clean(), "{:?}", r.violations);
        // Reversed order: the counter "went backwards".
        let r = lint(&first, Some(&second));
        assert!(
            r.violations.iter().any(|v| v.contains("went backwards")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn missing_help_and_type_flagged() {
        let r = lint("x_total 1\n", None);
        assert!(r.violations.iter().any(|v| v.contains("no # HELP")));
        assert!(r.violations.iter().any(|v| v.contains("no # TYPE")));
    }

    #[test]
    fn non_cumulative_buckets_flagged() {
        let text = "# HELP h x\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
                    h_sum 1\nh_count 5\n";
        let r = lint(text, None);
        assert!(
            r.violations.iter().any(|v| v.contains("not cumulative")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn count_mismatch_and_missing_inf_flagged() {
        let text = "# HELP h x\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n";
        let r = lint(text, None);
        assert!(r
            .violations
            .iter()
            .any(|v| v.contains("_count 5 != +Inf bucket 4")));
        let text = "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n";
        let r = lint(text, None);
        assert!(r.violations.iter().any(|v| v.contains("no +Inf bucket")));
    }

    #[test]
    fn duplicate_series_flagged() {
        let text = "# HELP x a\n# TYPE x counter\nx{m=\"a\"} 1\nx{m=\"a\"} 2\n";
        let r = lint(text, None);
        assert!(r.violations.iter().any(|v| v.contains("duplicate series")));
    }

    #[test]
    fn escaped_label_values_parse_back() {
        let t = Telemetry::new();
        t.counter("pema_esc_total", "esc", &[("m", "a\"b\\c\nd")])
            .inc();
        let r = lint(&t.render(), None);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn bad_escape_flagged() {
        let text = "# HELP x a\n# TYPE x counter\nx{m=\"a\\qb\"} 1\n";
        let r = lint(text, None);
        assert!(r.violations.iter().any(|v| v.contains("bad escape")));
    }

    #[test]
    fn unescaped_quote_in_label_value_flagged() {
        // An exporter that forgets to escape `"` in the value `a"b`
        // emits `m="a"b"` — the value parser stops at the stray quote
        // and the leftover must be flagged, not resynchronized into a
        // phantom label.
        let text = "# HELP x a\n# TYPE x counter\nx{m=\"a\"b\"} 1\n";
        let r = lint(text, None);
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("expected ',' or '}'")),
            "{:?}",
            r.violations
        );
        // Worse: the stray quote forms what parses as a second pair
        // (`m="a"b="c"`). The old parser accepted this as two labels.
        let text = "# HELP x a\n# TYPE x counter\nx{m=\"a\"b=\"c\"} 1\n";
        let r = lint(text, None);
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("expected ',' or '}'")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn malformed_label_separators_flagged() {
        // Doubled comma: the second pair "starts" with ',', which is
        // not a valid label name.
        let text = "# HELP x a\n# TYPE x counter\nx{m=\"a\",,n=\"b\"} 1\n";
        let r = lint(text, None);
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("invalid label name")),
            "{:?}",
            r.violations
        );
        // A label name cannot start with a digit or carry a quote.
        let text = "# HELP x a\n# TYPE x counter\nx{1m=\"a\"} 1\n";
        let r = lint(text, None);
        assert!(r
            .violations
            .iter()
            .any(|v| v.contains("invalid label name")));
        // A trailing comma before '}' is legal exposition format.
        let text = "# HELP x a\n# TYPE x counter\nx{m=\"a\",} 1\n";
        let r = lint(text, None);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn raw_newline_in_label_value_flagged() {
        // A raw (unescaped) newline splits the sample across two
        // exposition lines: the first is an unterminated label value,
        // the second is garbage — both must be flagged.
        let text = "# HELP x a\n# TYPE x counter\nx{m=\"a\nb\"} 1\n";
        let r = lint(text, None);
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("unterminated label value")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn negative_counter_sample_flagged() {
        let text = "# HELP x a\n# TYPE x counter\nx -1\n";
        let r = lint(text, None);
        assert!(!r.is_clean());
    }
}
