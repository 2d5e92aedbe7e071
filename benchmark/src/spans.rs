//! Spans recorded by the benchmark's own code around its calls into the
//! layers (traced runs only). A span is `{name, start, end, parent, op_id}`;
//! spans of one operation share `op_id` (the payload sequence number), and
//! `parent` names the span of the same operation that caused this one.
//! Spans go to a preallocated per-thread buffer and are written out when the
//! run ends.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Span names. A name fixes its parent, so a span stores no parent field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// Producer's call began -> consumer's call returned (root, queue workloads).
    Item,
    /// One `put`/`transfer`/`send().await` call.
    Put,
    /// One `take`/`recv().await` call.
    Take,
    /// `submit` began -> `join` returned (root, `pool_roundtrip`).
    Roundtrip,
    /// One `submit` call.
    Submit,
    /// One `join` call.
    Join,
    /// The job body, on the worker thread.
    Job,
    /// Request due -> resolved (root, `dispatch_open`).
    Request,
    /// Request due -> issued: how late the generator ran.
    SchedLag,
    /// One poll of a request's future by the benchmark's executor.
    Poll,
    /// `Waker::wake` stamped -> the woken connection's next poll began.
    WakeToRepoll,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Item => "item",
            Name::Put => "put",
            Name::Take => "take",
            Name::Roundtrip => "roundtrip",
            Name::Submit => "submit",
            Name::Join => "join",
            Name::Job => "job",
            Name::Request => "request",
            Name::SchedLag => "sched_lag",
            Name::Poll => "poll",
            Name::WakeToRepoll => "wake_to_repoll",
        }
    }

    pub fn parent(self) -> Option<Name> {
        match self {
            Name::Item | Name::Roundtrip | Name::Request => None,
            Name::Put | Name::Take => Some(Name::Item),
            Name::Submit | Name::Join => Some(Name::Roundtrip),
            Name::Job => Some(Name::Join),
            Name::SchedLag | Name::Poll | Name::WakeToRepoll => Some(Name::Request),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op_id: u64,
}

/// Spans one thread may record in a run; later ones are counted, not kept.
/// Room for the busiest recorder: `pool_roundtrip`, four spans per
/// operation at ~25k operations a second over a 3 s rep.
pub const SPANS_PER_THREAD: usize = 1 << 19;

/// One thread's span buffer, allocated before the run starts.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    /// Spans that end before this instant (set-up, warm-up) are not kept.
    from_ns: u64,
    pub dropped: u64,
}

impl SpanBuf {
    /// A buffer for a traced run that keeps spans ending at or after
    /// `from_ns`, or a zero-capacity one that is never pushed to for an
    /// untraced run.
    pub fn new(on: bool, from_ns: u64) -> SpanBuf {
        SpanBuf {
            spans: Vec::with_capacity(if on { SPANS_PER_THREAD } else { 0 }),
            from_ns,
            dropped: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, name: Name, start_ns: u64, end_ns: u64, op_id: u64) {
        if end_ns < self.from_ns {
            return;
        }
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                op_id,
            });
        } else {
            self.dropped += 1;
        }
    }
}

/// Every span of one run, merged from the thread buffers.
#[derive(Debug, Default)]
pub struct SpanSet {
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanSet {
    pub fn merge(bufs: Vec<SpanBuf>) -> SpanSet {
        let mut set = SpanSet::default();
        for b in bufs {
            set.dropped += b.dropped;
            set.spans.extend(b.spans);
        }
        set
    }

    /// Drops the spans that ended at or after `to_ns`.
    pub fn retain_before(&mut self, to_ns: u64) {
        self.spans.retain(|s| s.end_ns < to_ns);
    }

    /// Durations of every span called `name`, in ns.
    pub fn durations(&self, name: Name) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect()
    }

    /// For every operation that has both an `a` and a `b` span, the signed
    /// gap `pick(a, b)` in ns, kept when it is not negative.
    pub fn gaps(&self, a: Name, b: Name, pick: fn(&Span, &Span) -> i64) -> Vec<u64> {
        let index = |name: Name| -> BTreeMap<u64, &Span> {
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.op_id, s))
                .collect()
        };
        let (ia, ib) = (index(a), index(b));
        ia.iter()
            .filter_map(|(op, sa)| ib.get(op).map(|sb| pick(sa, sb)))
            .filter(|&g| g >= 0)
            .map(|g| g as u64)
            .collect()
    }

    /// Self time of every `parent` span: its duration minus the part of its
    /// interval that its children (same `op_id`, `parent` as parent) cover.
    pub fn self_times(&self, parent: Name) -> Vec<u64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.name.parent() == Some(parent) {
                children
                    .entry(s.op_id)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == parent)
            .map(|p| {
                let kids = children.get(&p.op_id).map_or(&[][..], |v| &v[..]);
                self_time((p.start_ns, p.end_ns), kids)
            })
            .collect()
    }

    /// Writes `name,start_ns,end_ns,parent,op_id` lines.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,start_ns,end_ns,parent,op_id")?;
        for s in &self.spans {
            writeln!(
                w,
                "{},{},{},{},{}",
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.name.parent().map_or("-", Name::as_str),
                s.op_id
            )?;
        }
        w.flush()
    }
}

/// `parent`'s length minus the length of the union of `children` clipped to
/// `parent`. Intervals are `(start, end)`.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = ps;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    pe.saturating_sub(ps) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        // No children: all of it.
        assert_eq!(self_time((10, 110), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((10, 110), &[(20, 30), (50, 70)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((10, 110), &[(20, 60), (40, 80)]), 40);
        // A child that starts before and one that ends after are clipped.
        assert_eq!(self_time((10, 110), &[(0, 20), (100, 500)]), 80);
        // Children outside the parent, or empty, cover nothing.
        assert_eq!(self_time((10, 110), &[(0, 5), (200, 300), (50, 50)]), 100);
        // A child covering everything leaves nothing; nested adds nothing.
        assert_eq!(self_time((10, 110), &[(0, 200), (30, 40)]), 0);
    }

    #[test]
    fn self_times_group_children_by_operation_and_parent_name() {
        let mut buf = SpanBuf::new(true, 0);
        buf.push(Name::Roundtrip, 0, 100, 1);
        buf.push(Name::Submit, 0, 10, 1);
        buf.push(Name::Join, 20, 100, 1);
        buf.push(Name::Job, 40, 50, 1); // child of join, not of roundtrip
        buf.push(Name::Roundtrip, 200, 260, 2);
        buf.push(Name::Submit, 200, 230, 2);
        let set = SpanSet::merge(vec![buf]);
        assert_eq!(set.self_times(Name::Roundtrip), vec![10, 30]);
        assert_eq!(set.self_times(Name::Join), vec![70]);
        assert_eq!(set.durations(Name::Submit), vec![10, 30]);
        let start_gap = set.gaps(Name::Submit, Name::Job, |a, b| {
            b.start_ns as i64 - a.start_ns as i64
        });
        assert_eq!(start_gap, vec![40]);
    }

    #[test]
    fn a_full_buffer_counts_what_it_drops() {
        let mut off = SpanBuf::new(false, 0);
        off.push(Name::Put, 0, 1, 0);
        assert_eq!((off.spans.len(), off.dropped), (0, 1));
        // Spans that end before the window are neither kept nor counted.
        let mut on = SpanBuf::new(true, 100);
        on.push(Name::Put, 0, 99, 0);
        on.push(Name::Put, 90, 100, 1);
        assert_eq!((on.spans.len(), on.dropped), (1, 0));
    }
}
