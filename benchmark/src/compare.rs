//! `compare`: two sets of result files, metric by metric, against the
//! bounds in `BENCHMARK.json`.
//!
//! A result file is the standard output of one or more benchmark runs:
//! each result line (a JSON object) is attributed to the workload named by
//! the nearest preceding `# carat-benchmark workload=<name> ...` header.

use std::collections::BTreeMap;

use crate::stats::quartiles;

/// A parsed JSON value (just enough of JSON for result lines and
/// `BENCHMARK.json`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(kv) => kv,
            _ => &[],
        }
    }

    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value()? else {
                        return Err(format!("object key expected at byte {}", self.i));
                    };
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(format!("`,` or `}}` expected at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(v));
                        }
                        _ => return Err(format!("`,` or `]` expected at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i) {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Json::Str(out));
                        }
                        Some(b'\\') => {
                            let c = self.s.get(self.i + 1).copied().unwrap_or(b'?');
                            out.push(match c {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                            self.i += 2;
                        }
                        Some(_) => {
                            // Copy one UTF-8 scalar.
                            let rest = std::str::from_utf8(&self.s[self.i..])
                                .map_err(|e| e.to_string())?;
                            let ch = rest.chars().next().expect("non-empty");
                            out.push(ch);
                            self.i += ch.len_utf8();
                        }
                    }
                }
            }
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

/// `workload → metric → values`, one value per result line.
type Results = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads every result line in `files`.
fn read_results(files: &[String]) -> Result<Results, String> {
    let mut out = Results::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let mut workload = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# carat-benchmark ") {
                workload = rest
                    .split_whitespace()
                    .find_map(|kv| kv.strip_prefix("workload="))
                    .map(str::to_string);
            } else if line.starts_with('{') {
                let (Some(w), Ok(json)) = (&workload, Json::parse(line)) else {
                    continue;
                };
                let per = out.entry(w.clone()).or_default();
                for (name, m) in json.get("metrics").map_or(&[][..], Json::entries) {
                    if let Some(v) = m.get("value").and_then(Json::num) {
                        per.entry(name.clone()).or_default().push(v);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// How far, in the metric's own unit, `metric` may worsen from the base
/// median `base_med` before it counts as a regression. `bound` is the share
/// of the median from `BENCHMARK.json`; two metrics carry an absolute
/// allowance that a share cannot express. `setup_s` is a fraction of a
/// millisecond on `model-grid`, where a share would flag timer noise, so it
/// may always move by 0.05 s. `model_err_pct` is already a percentage, and
/// may move by exactly 1.0 point whatever its level.
fn allowance(metric: &str, bound: f64, base_med: f64) -> f64 {
    let share = bound * base_med.abs();
    match metric {
        "setup_s" => share.max(0.05),
        "model_err_pct" => 1.0,
        _ => share,
    }
}

/// The verdict on one metric of one workload; `allowed` is its
/// [`allowance`].
fn verdict(base: &[f64], head: &[f64], lower_is_better: bool, allowed: f64) -> &'static str {
    let (bq1, bmed, bq3) = quartiles(base);
    let (hq1, hmed, hq3) = quartiles(head);
    let spread = (bq3 - bq1).max(hq3 - hq1);
    // Positive = head is worse, in the metric's unit.
    let worse = if lower_is_better {
        hmed - bmed
    } else {
        bmed - hmed
    };
    let beats = |h: f64, b: f64| if lower_is_better { h < b } else { h > b };
    let head_always_better = head.iter().all(|&h| base.iter().all(|&b| beats(h, b)));
    if head_always_better && worse < -spread {
        "improved"
    } else if spread > allowed {
        "unresolved"
    } else if worse > allowed {
        "regressed"
    } else if -worse > spread.max(allowed) {
        "improved"
    } else {
        "unchanged"
    }
}

/// Prints the comparison table against the bounds in `BENCHMARK.json`;
/// returns false when any metric regressed.
pub fn compare(base_files: &[String], head_files: &[String]) -> Result<bool, String> {
    let spec_path = "BENCHMARK.json";
    let spec_text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = Json::parse(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?;
    let base = read_results(base_files)?;
    let head = read_results(head_files)?;
    let mut ok = true;
    println!(
        "{:<14} {:<28} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>12} verdict",
        "workload",
        "metric",
        "base q1",
        "base med",
        "base q3",
        "head q1",
        "head med",
        "head q3",
        "allowed"
    );
    for (w, base_metrics) in &base {
        let Some(head_metrics) = head.get(w) else {
            println!("{w:<14} (no head results)");
            continue;
        };
        for m in spec.get("end_to_end").map_or(&[][..], Json::arr) {
            let name = m.get("name").and_then(Json::str).unwrap_or("");
            let (Some(b), Some(h)) = (base_metrics.get(name), head_metrics.get(name)) else {
                continue;
            };
            let bound = m.get("bound").and_then(Json::num).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::str) == Some("lower");
            let (bq1, bmed, bq3) = quartiles(b);
            let (hq1, hmed, hq3) = quartiles(h);
            let allowed = allowance(name, bound, bmed);
            let v = verdict(b, h, lower, allowed);
            ok &= v != "regressed";
            println!(
                "{w:<14} {name:<28} {bq1:>12.6} {bmed:>12.6} {bq3:>12.6} | {hq1:>12.6} {hmed:>12.6} {hq3:>12.6} | {allowed:>12.6} {v}"
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_result_lines_and_the_spec_shape() {
        let j = Json::parse(
            r#"{"correct": true, "attempted": 3, "metrics": {"x.y": {"value": -1.5e-3, "unit": "s"}}, "a": [1, "two", null]}"#,
        )
        .unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let x = j.get("metrics").and_then(|m| m.get("x.y")).unwrap();
        assert_eq!(x.get("value").and_then(Json::num), Some(-1.5e-3));
        assert_eq!(x.get("unit").and_then(Json::str), Some("s"));
        assert_eq!(j.get("a").map(Json::arr).map(<[Json]>::len), Some(3));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
    }

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let allowed = allowance("runs_per_s", 0.1, 100.0);
        assert_eq!(allowed, 10.0);
        assert_eq!(verdict(&base, &base, true, allowed), "unchanged");
        let slower: Vec<f64> = base.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&base, &slower, true, allowed), "regressed");
        // Higher is better: the same move is an improvement.
        assert_eq!(verdict(&base, &slower, false, allowed), "improved");
        let noisy = [50.0, 150.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&base, &noisy, true, allowed), "unresolved");
    }

    #[test]
    fn setup_floor_and_model_error_points_are_absolute() {
        // A sub-millisecond set-up that doubles is under the 0.05 s floor.
        let base = [0.00043, 0.00045, 0.00044, 0.00046, 0.00042];
        let doubled: Vec<f64> = base.iter().map(|x| x * 2.0).collect();
        let allowed = allowance("setup_s", 0.25, 0.00044);
        assert_eq!(allowed, 0.05);
        assert_eq!(verdict(&base, &doubled, true, allowed), "unchanged");
        // Above the floor the share applies: 0.8 s → 1.1 s exceeds 25%.
        let allowed = allowance("setup_s", 0.25, 0.8);
        assert_eq!(verdict(&[0.8; 5], &[1.1; 5], true, allowed), "regressed");
        // model_err_pct may move 1.0 point, at 6% as at 60%.
        for level in [6.42, 60.1] {
            let allowed = allowance("model_err_pct", 0.014, level);
            assert_eq!(allowed, 1.0);
            assert_eq!(
                verdict(&[level; 5], &[level + 0.9; 5], true, allowed),
                "unchanged"
            );
            assert_eq!(
                verdict(&[level; 5], &[level + 1.5; 5], true, allowed),
                "regressed"
            );
        }
    }
}
