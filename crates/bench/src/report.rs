//! What every bench bin shares: the `BENCH_*.json` layout and its
//! write-and-print tail, argument parsing, and nearest-rank
//! percentiles.

use std::str::FromStr;

/// A JSON value. Floats carry their own decimal precision, so each
/// field of an artifact keeps the precision it has always been
/// published with.
#[derive(Debug)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// A float printed with a fixed number of decimals; a non-finite
    /// value prints as `null`.
    Num(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// A float field printed with `decimals` places.
pub fn num(x: f64, decimals: usize) -> Json {
    Json::Num(x, decimals)
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as u64)
            }
        }
    )*};
}
from_int!(u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl Json {
    /// An object with its fields in the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The artifact text, newline-terminated. Object fields go one per
    /// line at two-space indentation; an array holding objects or
    /// arrays puts each element on its own line, and everything inside
    /// an array stays on that one line.
    pub fn render(&self) -> String {
        self.text(Some(0)) + "\n"
    }

    /// Write the artifact to `path` and say so on stdout. An artifact
    /// that cannot be written fails the run.
    pub fn write_artifact(&self, path: &str) {
        if let Err(e) = std::fs::write(path, self.render()) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("Wrote {path}.");
    }

    /// `indent` is that of the line the value starts on, or `None`
    /// inside an array, where everything stays on one line.
    fn text(&self, indent: Option<usize>) -> String {
        match self {
            Json::Bool(b) => b.to_string(),
            Json::Int(n) => n.to_string(),
            Json::Num(x, d) if x.is_finite() => format!("{x:.*}", *d),
            Json::Num(..) => "null".to_string(),
            Json::Str(s) => quote(s),
            Json::Arr(items) => {
                let nested = items
                    .iter()
                    .any(|v| matches!(v, Json::Arr(_) | Json::Obj(_)));
                let parts = items.iter().map(|v| v.text(None)).collect();
                container('[', parts, ']', indent.filter(|_| nested))
            }
            Json::Obj(fields) => {
                let parts = fields
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quote(k), v.text(indent.map(|n| n + 2))))
                    .collect();
                container('{', parts, '}', indent)
            }
        }
    }
}

/// `parts` one per line at `indent + 2`, closing at `indent`; on one
/// line when there is no indent or nothing inside.
fn container(open: char, parts: Vec<String>, close: char, indent: Option<usize>) -> String {
    match indent {
        Some(n) if !parts.is_empty() => {
            let pad = " ".repeat(n + 2);
            let body = parts.join(&format!(",\n{pad}"));
            format!("{open}\n{pad}{body}\n{}{close}", " ".repeat(n))
        }
        _ => format!("{open}{}{close}", parts.join(", ")),
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", jepo_serve::codec::json_escape(s))
}

/// A bench bin's command line: `--name value` flags for the names the
/// bin declares, bare `--switch`es, and positionals in order. A value
/// that does not parse reads as absent, so the default applies.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// The process arguments; `value_flags` names the flags that take a
    /// value.
    pub fn from_env(value_flags: &[&str]) -> Args {
        Args::parse(std::env::args().skip(1), value_flags)
    }

    /// [`Args::from_env`] over explicit arguments, program name excluded.
    pub fn parse(args: impl IntoIterator<Item = String>, value_flags: &[&str]) -> Args {
        let mut out = Args::default();
        let mut args = args.into_iter().peekable();
        while let Some(a) = args.next() {
            if value_flags.contains(&a.as_str()) {
                if let Some(v) = args.next_if(|v| !v.starts_with("--")) {
                    out.values.push((a, v));
                }
            } else if a.starts_with("--") {
                out.switches.push(a);
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// Positional `i` parsed as `T`, else `default`.
    pub fn pos<T: FromStr>(&self, i: usize, default: T) -> T {
        self.positional
            .get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }

    /// The first value given for flag `name`, parsed as `T`.
    pub fn flag<T: FromStr>(&self, name: &str) -> Option<T> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.parse().ok())
    }

    /// Whether the bare switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice; 0
/// for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Upper median of unsorted values (the nearest-rank 50th percentile,
/// `sorted[len / 2]`); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}
