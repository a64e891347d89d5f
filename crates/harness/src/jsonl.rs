//! The record grammar of the harness's JSONL streams, and its reader.
//!
//! `schemas/harness-jsonl.schema.json` is the one description of the
//! grammar. This module embeds the file and interprets it: [`validate`]
//! (the `validate-jsonl` subcommand) and the journal reader in
//! [`crate::journal`] pass every record through the same per-record
//! check, so a new or changed record type is one edit, to the schema.
//!
//! The interpreter covers the keywords the file uses: `oneOf` (the branch
//! whose `properties.type.const` equals the record's `type`), `type`
//! (`integer` is an integral JSON number), `const`, `enum`, `minimum`,
//! `pattern` (anchored literals and `[class]` steps, each optionally
//! repeated by `+` or `{n}`), `properties`, `required`,
//! `additionalProperties`, `items`, `minItems` and `maxItems`. A unit
//! test walks the file and fails on any other keyword or pattern form.
//! The check recurses along the schema, never along the record, so its
//! depth is the schema's, whatever the depth of the record.

use std::sync::OnceLock;

use isf_obs::{json, Json};

/// One validation failure: the 1-based line and what is wrong with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonlError {
    /// 1-based line number in the stream.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JsonlError {}

/// Validates a JSONL stream: every non-empty line must parse as a JSON
/// object that satisfies the schema. Returns the number of records
/// validated.
///
/// # Errors
///
/// Returns the first [`JsonlError`] encountered.
pub fn validate(stream: &str) -> Result<usize, JsonlError> {
    let mut records = 0;
    for (i, text) in stream.lines().enumerate() {
        if text.trim().is_empty() {
            continue;
        }
        let fail = |message| JsonlError {
            line: i + 1,
            message,
        };
        let record = json::parse(text).map_err(|e| fail(format!("not valid JSON: {e}")))?;
        check_record(&record).map_err(fail)?;
        records += 1;
    }
    Ok(records)
}

/// Checks one parsed record against the schema. The message names the
/// first offending field, by its path from the record.
pub(crate) fn check_record(record: &Json) -> Result<(), String> {
    if !matches!(record, Json::Obj(_)) {
        return Err("record is not a JSON object".to_owned());
    }
    check(schema(), record, "")
}

/// The embedded schema file, parsed once per process.
fn schema() -> &'static Json {
    static SCHEMA: OnceLock<Json> = OnceLock::new();
    SCHEMA.get_or_init(|| {
        json::parse(include_str!("../../../schemas/harness-jsonl.schema.json"))
            .expect("the embedded schema is valid JSON")
    })
}

/// Checks `value` against the schema node `node`; `at` is the value's
/// path from the record.
fn check(node: &Json, value: &Json, at: &str) -> Result<(), String> {
    let fail = |what: String| Err(format!("field `{at}` {what}, got {}", show(value)));
    if let Some(ty) = node.get("type").and_then(Json::as_str) {
        if !has_type(value, ty) {
            return fail(format!("has the wrong type, expected {ty}"));
        }
    }
    if let Some(c) = node.get("const") {
        if value != c {
            return fail(format!("must be {}", show(c)));
        }
    }
    if let Some(options) = node.get("enum").and_then(Json::as_arr) {
        if !options.contains(value) {
            let options: Vec<String> = options.iter().map(show).collect();
            return fail(format!("must be one of {}", options.join(", ")));
        }
    }
    if let (Some(min), Some(n)) = (node.get("minimum").and_then(Json::as_f64), value.as_f64()) {
        if n < min {
            return fail(format!("must be at least {min}"));
        }
    }
    if let (Some(p), Some(s)) = (node.get("pattern").and_then(Json::as_str), value.as_str()) {
        if !parse_pattern(p).is_some_and(|steps| matches(&steps, s)) {
            return fail(format!("must match `{p}`"));
        }
    }
    match value {
        Json::Arr(items) => {
            let min = node.get("minItems").and_then(Json::as_u64).unwrap_or(0);
            let max = node
                .get("maxItems")
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX);
            if !(min..=max).contains(&(items.len() as u64)) {
                return fail(format!("must have {min} to {max} items"));
            }
            if let Some(item) = node.get("items") {
                for (i, v) in items.iter().enumerate() {
                    check(item, v, &format!("{at}[{i}]"))?;
                }
            }
            Ok(())
        }
        Json::Obj(pairs) => check_object(node, value, pairs, at),
        _ => Ok(()),
    }
}

/// The object keywords of [`check`]: `required`, `properties`,
/// `additionalProperties` and `oneOf`, in that order.
fn check_object(
    node: &Json,
    record: &Json,
    pairs: &[(String, Json)],
    at: &str,
) -> Result<(), String> {
    let path = |name: &str| format!("{at}{}{name}", if at.is_empty() { "" } else { "." });
    let required = node
        .get("required")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    for name in required.iter().filter_map(Json::as_str) {
        if record.get(name).is_none() {
            return Err(format!("missing required field `{}`", path(name)));
        }
    }
    for (name, value) in pairs {
        let sub = node.get("properties").and_then(|p| p.get(name));
        if let Some(sub) = sub.or_else(|| node.get("additionalProperties")) {
            check(sub, value, &path(name))?;
        }
    }
    if let Some(branches) = node.get("oneOf").and_then(Json::as_arr) {
        let ty = record.get("type").unwrap_or(&Json::Null);
        let branch = branches
            .iter()
            .find(|b| branch_type(b) == Some(ty))
            .ok_or_else(|| format!("unknown record type {}", show(ty)))?;
        check(branch, record, at)?;
    }
    Ok(())
}

/// The `type` constant that keys a `oneOf` branch.
fn branch_type(branch: &Json) -> Option<&Json> {
    branch.get("properties")?.get("type")?.get("const")
}

fn has_type(value: &Json, ty: &str) -> bool {
    match ty {
        "object" => matches!(value, Json::Obj(_)),
        "array" => matches!(value, Json::Arr(_)),
        "string" => matches!(value, Json::Str(_)),
        "integer" => matches!(value, Json::Int(_) | Json::UInt(_)),
        "number" => value.is_number(),
        "boolean" => matches!(value, Json::Bool(_)),
        _ => false,
    }
}

/// A value for a message, in backticks: a string as itself, anything
/// else as JSON, cut after 40 characters.
fn show(value: &Json) -> String {
    let text = value
        .as_str()
        .map_or_else(|| value.to_string(), str::to_owned);
    let cut: String = text.chars().take(40).collect();
    let more = if cut.len() < text.len() { "..." } else { "" };
    format!("`{cut}`{more}")
}

/// One step of a pattern: a set of character ranges, matched between
/// `min` and `max` times.
struct Step {
    set: Vec<(char, char)>,
    min: usize,
    max: usize,
}

/// Parses the pattern forms the schema uses: `^`, then steps, then `$`.
/// A step is a literal character or a `[...]` class of characters and
/// `a-z` ranges, optionally followed by `+` or `{n}`. `None` for any
/// other form.
fn parse_pattern(pattern: &str) -> Option<Vec<Step>> {
    let plain = |c: &char| c.is_ascii() && !"\\^$.|?*+-()[]{}".contains(*c);
    let mut chars = pattern
        .strip_prefix('^')?
        .strip_suffix('$')?
        .chars()
        .peekable();
    let mut steps = Vec::new();
    while let Some(c) = chars.next() {
        let mut set = Vec::new();
        if c == '[' {
            while chars.next_if_eq(&']').is_none() {
                let lo = chars.next_if(plain)?;
                let hi = match chars.next_if_eq(&'-') {
                    Some(_) => chars.next_if(plain)?,
                    None => lo,
                };
                set.push((lo, hi));
            }
        } else if plain(&c) {
            set.push((c, c));
        } else {
            return None;
        }
        let (min, max) = if chars.next_if_eq(&'+').is_some() {
            (1, usize::MAX)
        } else if chars.next_if_eq(&'{').is_some() {
            let mut n = String::new();
            while let Some(d) = chars.next_if(char::is_ascii_digit) {
                n.push(d);
            }
            chars.next_if_eq(&'}')?;
            let n = n.parse().ok()?;
            (n, n)
        } else {
            (1, 1)
        };
        steps.push(Step { set, min, max });
    }
    Some(steps)
}

/// Whether all of `s` matches `steps`, backtracking over how many
/// characters each repeated step takes.
fn matches(steps: &[Step], s: &str) -> bool {
    let Some((step, rest)) = steps.split_first() else {
        return s.is_empty();
    };
    // ends[k] is the byte offset after the first k characters of `s`.
    let mut ends = vec![0];
    for (i, c) in s.char_indices().take(step.max) {
        if !step.set.iter().any(|&(lo, hi)| (lo..=hi).contains(&c)) {
            break;
        }
        ends.push(i + c.len_utf8());
    }
    let taken = ends.get(step.min..).unwrap_or_default();
    taken.iter().rev().any(|&end| matches(rest, &s[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_well_formed_stream() {
        let stream = concat!(
            "{\"type\":\"meta\",\"schema\":\"isf-harness-jsonl/1\",\"scale\":\"smoke\",\"experiments\":[\"table1\"]}\n",
            "{\"type\":\"cell\",\"label\":\"prepare/db\",\"sim_cycles\":1,\"instructions\":2,\"prepares\":0,\"wall_ns\":0,\"mips\":0}\n",
            "{\"type\":\"error\",\"label\":\"table1/db\",\"kind\":\"trap\",\"detail\":\"trap in `main`: division by zero\",\"attempts\":1}\n",
            "{\"type\":\"row\",\"experiment\":\"table1\",\"bench\":\"db\",\"call_edge_pct\":1.5}\n",
            "\n",
            "{\"type\":\"summary\",\"experiment\":\"table1\",\"avg_call_edge_pct\":1.5}\n",
            "{\"type\":\"phase\",\"experiment\":\"table1\",\"name\":\"run\",\"count\":3,\"wall_ns\":0}\n",
        );
        assert_eq!(validate(stream), Ok(6));
    }

    #[test]
    fn accepts_journal_records_and_resumed_meta() {
        let stream = concat!(
            "{\"type\":\"meta\",\"schema\":\"isf-harness-jsonl/1\",\"scale\":\"smoke\",\"experiments\":[\"table1\"],\"resumed\":true}\n",
            "{\"type\":\"journal-meta\",\"schema\":\"isf-journal/1\",\"fingerprint\":\"00ff00ff00ff00ff\",\
             \"version\":\"0.1.0\",\"scale\":\"smoke\",\"experiments\":[\"table1\"],\"cell_budget\":0,\
             \"retries\":1,\"fault_prob_bits\":0,\"fault_seed\":0,\"vm_config\":\"VmConfig { .. }\"}\n",
            "{\"type\":\"journal-cell\",\"label\":\"table1/db\",\"key\":\"0123456789abcdef\",\
             \"cell\":{\"label\":\"table1/db\"},\"payload\":[1,2],\"phases\":[]}\n",
        );
        assert_eq!(validate(stream), Ok(3));
    }

    #[test]
    fn rejects_malformed_journal_records() {
        let bad_resumed =
            "{\"type\":\"meta\",\"schema\":\"isf-harness-jsonl/1\",\"scale\":\"smoke\",\"experiments\":[],\"resumed\":\"yes\"}";
        assert!(validate(bad_resumed)
            .unwrap_err()
            .message
            .contains("resumed"));

        let no_key = "{\"type\":\"journal-cell\",\"label\":\"x\",\"cell\":{},\"phases\":[]}";
        assert!(validate(no_key).unwrap_err().message.contains("key"));

        let bad_cell =
            "{\"type\":\"journal-cell\",\"label\":\"x\",\"key\":\"0123456789abcdef\",\"cell\":7,\"phases\":[]}";
        assert!(validate(bad_cell).unwrap_err().message.contains("cell"));

        let no_fp =
            "{\"type\":\"journal-meta\",\"schema\":\"s\",\"version\":\"v\",\"scale\":\"smoke\",\
                     \"experiments\":[],\"cell_budget\":0,\"retries\":1,\"fault_prob_bits\":0,\
                     \"fault_seed\":0,\"vm_config\":\"c\"}";
        assert!(validate(no_fp).unwrap_err().message.contains("fingerprint"));
    }

    #[test]
    fn accepts_profiling_records() {
        let stream = concat!(
            "{\"type\":\"summary\",\"experiment\":\"table1\",\"avg_call_edge_pct\":1.5,\
             \"prep_cache_hits\":12,\"prep_cache_misses\":3}\n",
            "{\"type\":\"metrics\",\"counters\":{\"op.const.count\":10,\"prep.cache.hits\":2},\
             \"histograms\":{\"trigger.counter.sample_gap_cycles\":\
             {\"count\":1,\"sum\":5,\"min\":5,\"max\":5,\"buckets\":[[3,1]]}}}\n",
            "{\"type\":\"span-summary\",\"spans\":[{\"cat\":\"cell\",\"name\":\"table1/db\",\
             \"count\":1,\"wall_ns\":0,\"cpu_ns\":0}]}\n",
        );
        assert_eq!(validate(stream), Ok(3));
    }

    #[test]
    fn rejects_malformed_profiling_records() {
        let bad_hits = "{\"type\":\"summary\",\"experiment\":\"t\",\"prep_cache_hits\":\"lots\"}";
        assert!(validate(bad_hits)
            .unwrap_err()
            .message
            .contains("prep_cache_hits"));

        let no_histograms = "{\"type\":\"metrics\",\"counters\":{}}";
        assert!(validate(no_histograms)
            .unwrap_err()
            .message
            .contains("histograms"));

        let bad_span = "{\"type\":\"span-summary\",\"spans\":[{\"cat\":\"cell\",\"name\":\"x\"}]}";
        assert!(validate(bad_span).unwrap_err().message.contains("count"));
    }

    #[test]
    fn accepts_explore_records() {
        let stream = concat!(
            "{\"type\":\"explore\",\"bench\":\"pbob\",\"seed\":\"0x5eed\",\"decisions\":42,\
             \"random_schedules\":32,\"pct_schedules\":8,\"dfs_schedules\":0,\
             \"dfs_exhausted\":false}\n",
            "{\"type\":\"summary\",\"experiment\":\"explore\",\"verified\":2,\"failed\":0}\n",
        );
        assert_eq!(validate(stream), Ok(2));
    }

    #[test]
    fn rejects_malformed_explore_records() {
        let no_seed = "{\"type\":\"explore\",\"bench\":\"pbob\",\"decisions\":1,\
             \"random_schedules\":1,\"pct_schedules\":1,\"dfs_schedules\":0,\"dfs_exhausted\":false}";
        assert!(validate(no_seed).unwrap_err().message.contains("seed"));

        let numeric_seed = "{\"type\":\"explore\",\"bench\":\"pbob\",\"seed\":5,\"decisions\":1,\
             \"random_schedules\":1,\"pct_schedules\":1,\"dfs_schedules\":0,\"dfs_exhausted\":false}";
        assert!(
            validate(numeric_seed)
                .unwrap_err()
                .message
                .contains("wrong type"),
            "seed must be the hex string form"
        );
    }

    #[test]
    fn rejects_malformed_error_records() {
        let missing = "{\"type\":\"error\",\"label\":\"x\",\"kind\":\"trap\",\"detail\":\"d\"}";
        assert!(validate(missing).unwrap_err().message.contains("attempts"));
        let wrong =
            "{\"type\":\"error\",\"label\":\"x\",\"kind\":\"trap\",\"detail\":7,\"attempts\":1}";
        assert!(validate(wrong).unwrap_err().message.contains("wrong type"));
    }

    #[test]
    fn error_kind_is_a_closed_enum() {
        for kind in ["trap", "panic", "budget", "deadline"] {
            let good = format!(
                "{{\"type\":\"error\",\"label\":\"x\",\"kind\":\"{kind}\",\"detail\":\"d\",\"attempts\":1}}"
            );
            assert_eq!(validate(&good), Ok(1), "kind `{kind}` must be accepted");
        }
        let bad =
            "{\"type\":\"error\",\"label\":\"x\",\"kind\":\"timeout\",\"detail\":\"d\",\"attempts\":1}";
        let e = validate(bad).unwrap_err();
        assert!(e.message.contains("`timeout`"), "{e}");
        assert!(e.message.contains("deadline"), "{e}");
    }

    #[test]
    fn rejects_bad_records() {
        let bad_json = "{\"type\":\"meta\",";
        assert!(validate(bad_json)
            .unwrap_err()
            .message
            .contains("not valid JSON"));

        let no_type = "{\"label\":\"x\"}";
        assert!(validate(no_type).unwrap_err().message.contains("`type`"));

        let unknown = "{\"type\":\"mystery\"}";
        assert!(validate(unknown).unwrap_err().message.contains("unknown"));

        let missing = "{\"type\":\"cell\",\"label\":\"x\"}";
        let e = validate(missing).unwrap_err();
        assert!(e.message.contains("sim_cycles"), "{e}");

        let wrong_type = "{\"type\":\"phase\",\"experiment\":\"t\",\"name\":\"run\",\"count\":\"three\",\"wall_ns\":0}";
        assert!(validate(wrong_type)
            .unwrap_err()
            .message
            .contains("wrong type"));

        let not_object = "[1,2,3]";
        assert!(validate(not_object)
            .unwrap_err()
            .message
            .contains("not a JSON object"));
    }

    #[test]
    fn error_reports_line_numbers() {
        let stream = "{\"type\":\"row\",\"experiment\":\"t\"}\nnonsense\n";
        let e = validate(stream).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().starts_with("line 2:"));
    }

    /// One valid record of each type the drift rows edit.
    const META: &str = r#"{"type":"meta","schema":"isf-harness-jsonl/1","scale":"smoke","experiments":["table1"],"resumed":true}"#;
    const CELL: &str = r#"{"type":"cell","label":"table1/db","sim_cycles":1,"instructions":2,"prepares":0,"wall_ns":0,"mips":0}"#;
    const ERROR: &str =
        r#"{"type":"error","label":"table1/db","kind":"trap","detail":"d","attempts":1}"#;
    const EXPLORE: &str = r#"{"type":"explore","bench":"pbob","seed":"0x5eed","decisions":4,"random_schedules":32,"pct_schedules":8,"dfs_schedules":0,"dfs_exhausted":false}"#;
    const JOURNAL_META: &str = r#"{"type":"journal-meta","schema":"isf-journal/1","fingerprint":"00ff00ff00ff00ff","version":"0.1.0","scale":"smoke","experiments":["table1"],"cell_budget":0,"retries":0,"fault_prob_bits":0,"fault_seed":0,"vm_config":"c"}"#;
    const SPANS: &str = r#"{"type":"span-summary","spans":[{"cat":"cell","name":"table1/db","count":1,"wall_ns":0,"cpu_ns":0}]}"#;
    const METRICS: &str = r#"{"type":"metrics","counters":{"op.const.count":10},"histograms":{"h":{"count":1,"sum":5,"min":5,"max":5,"buckets":[[4,1]]}}}"#;
    const JOURNAL_CELL: &str = r#"{"type":"journal-cell","label":"table1/db","key":"0123456789abcdef","cell":{},"phases":[{"name":"run","count":1,"wall_ns":0}]}"#;

    #[test]
    fn schema_violations_are_rejected_with_the_field_named() {
        // (valid record, text to replace, replacement, field the message names)
        let rows = [
            (META, r#""smoke""#, r#""huge""#, "`scale`"),
            (META, r#""isf-harness-jsonl/1""#, r#""nope""#, "`schema`"),
            (META, "true", "false", "`resumed`"),
            (META, r#"["table1"]"#, "[1,2]", "`experiments[0]`"),
            (
                CELL,
                r#""sim_cycles":1"#,
                r#""sim_cycles":1.5"#,
                "`sim_cycles`",
            ),
            (
                CELL,
                r#""sim_cycles":1"#,
                r#""sim_cycles":-4"#,
                "`sim_cycles`",
            ),
            (ERROR, r#""attempts":1"#, r#""attempts":0"#, "`attempts`"),
            (EXPLORE, "0x5eed", "zz", "`seed`"),
            (JOURNAL_META, "00ff00ff00ff00ff", "ab", "`fingerprint`"),
            (JOURNAL_META, "isf-journal/1", "other", "`schema`"),
            (
                SPANS,
                r#""cat":"cell""#,
                r#""cat":"bogus""#,
                "`spans[0].cat`",
            ),
            (METRICS, "10", r#""ten""#, "`counters.op.const.count`"),
            (METRICS, r#""sum":5,"#, "", "`histograms.h.sum`"),
            (METRICS, "[[4,1]]", "[[4,1,2]]", "`histograms.h.buckets[0]`"),
            (JOURNAL_CELL, r#""run""#, "1", "`phases[0].name`"),
            (JOURNAL_CELL, "0123456789abcdef", "0", "`key`"),
        ];
        for (valid, from, to, field) in rows {
            assert_eq!(validate(valid), Ok(1), "{valid}");
            let bad = valid.replacen(from, to, 1);
            let e = validate(&bad).expect_err(&bad);
            assert!(e.message.contains(field), "{bad}: {e}");
        }
    }

    #[test]
    fn the_schema_uses_only_interpreted_keywords_and_patterns() {
        const KEYWORDS: [&str; 12] = [
            "oneOf",
            "type",
            "const",
            "enum",
            "minimum",
            "pattern",
            "properties",
            "required",
            "additionalProperties",
            "items",
            "minItems",
            "maxItems",
        ];
        const ANNOTATIONS: [&str; 4] = ["title", "description", "$schema", "$id"];
        const TYPES: [&str; 6] = ["object", "array", "string", "integer", "number", "boolean"];
        fn walk(node: &Json, at: &str) {
            let Json::Obj(pairs) = node else {
                panic!("{at}: a schema node must be an object, got {node}");
            };
            for (key, value) in pairs {
                let known = KEYWORDS.contains(&key.as_str()) || ANNOTATIONS.contains(&key.as_str());
                assert!(known, "{at}: keyword `{key}` is not interpreted");
                match key.as_str() {
                    "type" => {
                        let ty = value.as_str().unwrap_or_default();
                        assert!(TYPES.contains(&ty), "{at}: type {value}");
                    }
                    "pattern" => {
                        let p = value.as_str().unwrap_or_default();
                        assert!(parse_pattern(p).is_some(), "{at}: pattern `{p}`");
                    }
                    "properties" => {
                        let Json::Obj(props) = value else {
                            panic!("{at}: properties {value}");
                        };
                        for (name, sub) in props {
                            walk(sub, &format!("{at}.{name}"));
                        }
                    }
                    "additionalProperties" | "items" => walk(value, &format!("{at}/{key}")),
                    "oneOf" => {
                        let branches = value.as_arr().unwrap_or_default();
                        let mut types = Vec::new();
                        for b in branches {
                            let ty = branch_type(b).and_then(Json::as_str);
                            let ty = ty.expect("every branch has a string `type` const");
                            assert!(!types.contains(&ty), "{at}: two `{ty}` branches");
                            types.push(ty);
                            walk(b, &format!("{at}/{ty}"));
                        }
                    }
                    _ => {}
                }
            }
        }
        walk(schema(), "schema");
    }

    #[test]
    fn patterns_match_whole_strings_and_unsupported_forms_are_refused() {
        let hex16 = parse_pattern("^[0-9a-f]{16}$").expect("supported");
        assert!(matches(&hex16, "0123456789abcdef"));
        for bad in [
            "0123456789abcde",
            "0123456789abcdef0",
            "0123456789ABCDEF",
            "",
        ] {
            assert!(!matches(&hex16, bad), "{bad}");
        }
        let seed = parse_pattern("^0x[0-9a-f]+$").expect("supported");
        assert!(matches(&seed, "0x5eed"));
        for bad in ["0x", "zz", "0x5eedz", "x5eed", "0x5éed"] {
            assert!(!matches(&seed, bad), "{bad}");
        }
        let backtrack = parse_pattern("^[a-c]+c$").expect("supported");
        assert!(matches(&backtrack, "abcc"));
        for unsupported in [
            "[0-9]+", "^a*$", "^a.b$", "^(ab)$", "^[a-$", "^a{2$", "^[^a]$",
        ] {
            assert!(parse_pattern(unsupported).is_none(), "{unsupported}");
        }
    }
}
