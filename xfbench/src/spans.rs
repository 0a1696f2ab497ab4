//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in a thread-local buffer with nanosecond timestamps. A span
//! opened while another is open on the same thread becomes its child. Spans
//! of one detection or job share a group id. Nothing is written until the
//! run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub group: u64,
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        group: 0,
    });
}

/// Starts this thread's span clock. Call it before taking any timestamp
/// that will be recorded: earlier instants saturate to the epoch.
pub fn start_clock() {
    REC.with(|r| r.borrow_mut().epoch = Instant::now());
}

/// Turns span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

/// Stamps spans opened from now on with `group`.
pub fn set_group(group: u64) {
    REC.with(|r| r.borrow_mut().group = group);
}

/// Runs `f` inside a span named `name` (just runs it while recording is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let idx = r.spans.len();
        let span = Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: r.open.last().copied(),
            group: r.group,
        };
        r.spans.push(span);
        r.open.push(idx);
        let start = ns_locked(&r, Instant::now());
        r.spans[idx].start_ns = start;
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = ns_locked(&r, Instant::now());
            r.spans[idx].end_ns = end;
            r.open.pop();
        });
    }
    out
}

fn ns_locked(r: &Recorder, t: Instant) -> u64 {
    t.saturating_duration_since(r.epoch).as_nanos() as u64
}

/// Records a span measured elsewhere (another thread, or timestamps taken
/// by a client); returns its index for use as a parent.
pub fn record(name: &'static str, start: Instant, end: Instant, parent: Option<usize>) -> usize {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let span = Span {
            name,
            start_ns: ns_locked(&r, start),
            end_ns: ns_locked(&r, end),
            parent,
            group: r.group,
        };
        r.spans.push(span);
        r.spans.len() - 1
    })
}

/// Takes every span recorded so far on this thread.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of each span: its duration minus the part of its interval that
/// the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let covered = covered(s.start_ns, s.end_ns, kids);
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Summed self time in seconds per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}

/// Serializes spans as a JSON array with microsecond timestamps.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}{}",
            s.group,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_exactly() {
        let spans = vec![
            at("root", 0, 100, None),
            // Two overlapping children cover [10, 40) once, not twice.
            at("a", 10, 30, Some(0)),
            at("b", 20, 40, Some(0)),
            // A disjoint child covers [60, 70).
            at("c", 60, 70, Some(0)),
            // A child reaching past its parent counts only inside it.
            at("d", 95, 120, Some(0)),
            // A grandchild is subtracted from its own parent only.
            at("e", 12, 18, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 30 - 10 - 5);
        assert_eq!(t[1], 20 - 6);
        assert_eq!(t[2], 20);
        assert_eq!(t[5], 6);
    }

    #[test]
    fn nested_spans_record_parents_and_groups() {
        set_enabled(true);
        set_group(7);
        span("outer", || span("inner", || ()));
        set_enabled(false);
        span("ignored", || ());
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.group == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
