//! In-memory span recorder for the traced run.
//!
//! The benchmark records one span around each call it makes into a
//! crate's public functions; nothing is traced inside the program. A span
//! has a name (`<layer>.<call>`), start, end and parent, and every span of
//! one diagnosis, steady-state program pass or layer-arm run shares a
//! group id. Spans stay in memory until the run ends and are then written
//! out as TSV.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: usize = usize::MAX;

/// One recorded call.
pub struct Span {
    /// `<layer>.<call>`; the layer is the text before the first dot.
    pub name: &'static str,
    /// Shared by every span of one diagnosis / program pass / arm run.
    pub group: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: usize,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer (crate) this span's call belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The recorder.
pub struct Spans {
    origin: Instant,
    next_group: u64,
    /// Every span, in open order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            next_group: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`, inheriting the parent's group.
    pub fn open(&mut self, name: &'static str, parent: usize) -> usize {
        let group = self.spans.get(parent).map_or(0, |p| p.group);
        self.push(name, parent, group)
    }

    /// Opens a span under `parent` that starts a new group.
    pub fn open_group(&mut self, name: &'static str, parent: usize) -> usize {
        self.next_group += 1;
        self.push(name, parent, self.next_group)
    }

    fn push(&mut self, name: &'static str, parent: usize, group: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.dur_ns()
    }

    /// Self time per span: its duration minus its children's durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time summed per layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer()).or_insert(0) += own;
        }
        out
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Writes every span as TSV: `id parent group name start_ns end_ns`
    /// (parent `-` for roots).
    pub fn write_tsv(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tgroup\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Opens a span when tracing, returning [`ROOT`] otherwise.
pub fn open(spans: &mut Option<&mut Spans>, name: &'static str, parent: usize) -> usize {
    spans.as_deref_mut().map_or(ROOT, |s| s.open(name, parent))
}

/// Opens a new-group span when tracing, returning [`ROOT`] otherwise.
pub fn open_group(spans: &mut Option<&mut Spans>, name: &'static str, parent: usize) -> usize {
    spans
        .as_deref_mut()
        .map_or(ROOT, |s| s.open_group(name, parent))
}

/// Closes a span opened by [`open`] / [`open_group`] (no-op untraced).
pub fn close(spans: &mut Option<&mut Spans>, id: usize) {
    if let Some(s) = spans.as_deref_mut() {
        s.close(id);
    }
}
