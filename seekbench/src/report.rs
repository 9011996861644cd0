//! The result line, and the provenance record printed before it.

use seeker_obs::json::JsonValue;

/// Named metrics with units, in the order they were added.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.entries
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        JsonValue::object([("value", (*value).into()), ("unit", (*unit).into())]),
                    )
                })
                .collect(),
        )
    }
}

/// The last line of standard output. Counts are written as integers,
/// which `JsonValue` (all numbers `f64`) would print with a fraction.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics.to_json().to_compact_string()
    )
}

/// Where and on what a result was measured. Integers in `extra` are
/// pre-rendered JSON text.
pub fn provenance(workload: &str, seed: u64, trace: bool, extra: Vec<(&str, String)>) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let text = |s: &str| JsonValue::from(s).to_compact_string();
    let mut fields = vec![
        ("workload", text(workload)),
        ("seed", seed.to_string()),
        ("held_out_seed", crate::HELD_OUT_SEED.to_string()),
        ("trace", trace.to_string()),
        ("host_cores", cores.to_string()),
        ("cpu_model", text(&cpu_model())),
        ("git_rev", text(&git_rev())),
    ];
    fields.extend(extra);
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}:{v}", text(k))).collect();
    format!("{{\"provenance\":{{{}}}}}", body.join(","))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_string)
                })
                .unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown (not a git checkout)".to_string(),
    }
}
