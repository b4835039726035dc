//! Wall-clock span timers with RAII guards and hierarchical naming.

use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(not(feature = "metrics-off"))]
use std::borrow::Cow;
#[cfg(not(feature = "metrics-off"))]
use std::cell::RefCell;
#[cfg(not(feature = "metrics-off"))]
use std::sync::{Mutex, OnceLock};
#[cfg(not(feature = "metrics-off"))]
use std::time::Instant;

use crate::snapshot::TimerSnapshot;

/// Accumulated wall-clock time for one span path.
///
/// Timers measure real time and are therefore *excluded* from the
/// determinism contract: they appear in [`crate::MetricsSnapshot::to_json`]
/// but never in [`crate::MetricsSnapshot::deterministic_json`].
#[derive(Debug, Default)]
pub struct Timer {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Timer {
    /// Creates an empty timer.
    pub const fn new() -> Self {
        Timer {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one span of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Copies the current contents out.
    pub fn snapshot(&self) -> TimerSnapshot {
        TimerSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    #[cfg_attr(feature = "metrics-off", allow(dead_code))]
    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// One interned span path: a node of the process-wide span tree, keyed by
/// (parent, name). Built and leaked on a path's first visit; every later
/// open or close of the span reuses it, so recording a span makes no
/// allocation, takes no lock and builds no string.
#[cfg(not(feature = "metrics-off"))]
struct SpanNode {
    name: &'static str,
    /// The full `/`-joined path.
    path: &'static str,
    /// The timer registered for `path`.
    timer: &'static Timer,
    /// Head of this node's child list.
    children: ChildSlot,
    /// The next sibling in the parent's child list.
    next: ChildSlot,
}

/// A link in an append-only child list. Readers walk the list without a
/// lock; only [`intern`] sets a link, under [`INTERN`].
#[cfg(not(feature = "metrics-off"))]
type ChildSlot = OnceLock<&'static SpanNode>;

#[cfg(not(feature = "metrics-off"))]
impl std::fmt::Debug for SpanNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.path)
    }
}

/// Head of the list of top-level spans.
#[cfg(not(feature = "metrics-off"))]
static TOP_LEVEL: ChildSlot = OnceLock::new();
/// Serializes first visits, so each (parent, name) is interned once.
#[cfg(not(feature = "metrics-off"))]
static INTERN: Mutex<()> = Mutex::new(());

/// The node in `list` named `name`, or the empty link at the list's end.
#[cfg(not(feature = "metrics-off"))]
fn find(list: &'static ChildSlot, name: &str) -> Result<&'static SpanNode, &'static ChildSlot> {
    let mut slot = list;
    while let Some(node) = slot.get() {
        if node.name == name {
            return Ok(node);
        }
        slot = &node.next;
    }
    Err(slot)
}

/// The node for span `name` opened under `parent` (top level if `None`).
#[cfg(not(feature = "metrics-off"))]
fn intern(parent: Option<&'static SpanNode>, name: &'static str) -> &'static SpanNode {
    let list = parent.map_or(&TOP_LEVEL, |p| &p.children);
    if let Ok(node) = find(list, name) {
        return node;
    }
    let _first_visit = INTERN.lock().unwrap_or_else(|e| e.into_inner());
    // Another thread may have appended the node while this one waited.
    match find(list, name) {
        Ok(node) => node,
        Err(tail) => {
            let path: &'static str = match parent {
                Some(p) => Box::leak(format!("{}/{name}", p.path).into_boxed_str()),
                None => name,
            };
            let node: &'static SpanNode = Box::leak(Box::new(SpanNode {
                name,
                path,
                timer: crate::registry::timer_by_path(path),
                children: OnceLock::new(),
                next: OnceLock::new(),
            }));
            tail.set(node).expect("only the interner sets links");
            node
        }
    }
}

#[cfg(not(feature = "metrics-off"))]
thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static SpanNode>> = const { RefCell::new(Vec::new()) };
}

/// The innermost span open on this thread.
#[cfg(not(feature = "metrics-off"))]
fn innermost() -> Option<&'static SpanNode> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// RAII guard returned by [`span`]; records the elapsed time against the
/// span's stack path when dropped.
#[must_use = "a span records its duration when the guard is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    #[cfg(not(feature = "metrics-off"))]
    start: Instant,
    #[cfg(not(feature = "metrics-off"))]
    node: &'static SpanNode,
}

/// Opens a span named `name`, nested under any spans already open on this
/// thread.
///
/// The timer key is the `/`-joined stack of open span names, so
/// `span("diagnose")` followed by `span("collect")` records under
/// `"diagnose"` and `"diagnose/collect"`. Guards must be dropped in LIFO
/// order (the natural scoping order) for paths to stay well-formed. Work
/// handed to another thread starts from an empty stack there.
///
/// With `metrics-off` this never reads the clock and records nothing.
pub fn span(name: &'static str) -> SpanGuard {
    #[cfg(not(feature = "metrics-off"))]
    {
        push(intern(innermost(), name))
    }
    #[cfg(feature = "metrics-off")]
    {
        let _ = name;
        SpanGuard {}
    }
}

#[cfg(not(feature = "metrics-off"))]
fn push(node: &'static SpanNode) -> SpanGuard {
    SPAN_STACK.with(|s| s.borrow_mut().push(node));
    // Mirror the span into the flight-recorder journal so the Chrome
    // export can show it as a B/E duration pair. Journaled *before* the
    // clock read so the recording cost is outside the measured span.
    crate::journal::record(crate::event::EventKind::SpanBegin {
        path: Cow::Borrowed(node.path),
    });
    SpanGuard {
        start: Instant::now(),
        node,
    }
}

/// A cheap, sendable token naming an open span's full path.
///
/// Spans nest per *thread*: work handed to a worker thread starts from an
/// empty span stack there, so its spans would surface at the top level of
/// the timing report even though, logically, they run inside the span that
/// dispatched them. Capture a handle with [`current_span_handle`] on the
/// dispatching thread, send it (it is `Send + Sync`), and open worker
/// spans with [`span_under`] to parent them explicitly.
#[derive(Clone, Debug, Default)]
pub struct SpanHandle {
    #[cfg(not(feature = "metrics-off"))]
    node: Option<&'static SpanNode>,
}

/// Captures the calling thread's current span path as a [`SpanHandle`].
///
/// With no spans open (or under `metrics-off`) the handle is empty and
/// [`span_under`] degrades to a plain top-level [`span`].
pub fn current_span_handle() -> SpanHandle {
    #[cfg(not(feature = "metrics-off"))]
    {
        SpanHandle { node: innermost() }
    }
    #[cfg(feature = "metrics-off")]
    {
        SpanHandle {}
    }
}

/// Opens a span named `name` nested under `parent` — a handle captured on
/// the dispatching thread. Further plain [`span`] calls on this thread
/// nest inside it.
///
/// If this thread already has spans open (the dispatch-thread case, where
/// `parent` describes exactly those spans), the parent is redundant and
/// the span nests under the local stack instead — so the same call site
/// produces the same path whether the work ran inline or on a worker.
///
/// With `metrics-off` this never reads the clock and records nothing.
pub fn span_under(parent: &SpanHandle, name: &'static str) -> SpanGuard {
    #[cfg(not(feature = "metrics-off"))]
    {
        push(intern(innermost().or(parent.node), name))
    }
    #[cfg(feature = "metrics-off")]
    {
        let _ = (parent, name);
        SpanGuard {}
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        #[cfg(not(feature = "metrics-off"))]
        {
            let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.node.timer.record_ns(ns);
            crate::journal::record(crate::event::EventKind::SpanEnd {
                path: Cow::Borrowed(self.node.path),
            });
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}
