//! The discrete-event execution engine that drives every [`crate::Soc`] run.
//!
//! ## Architecture
//!
//! A single scheduler loop owns a min-heap of timestamped component
//! events and drives global virtual time deterministically: pop the
//! earliest `(time, component)` entry, tick that component, reinsert it
//! at its next event time. Components implement [`Component`] —
//! `next_tick()` announces when the component next needs to act,
//! `tick()` performs the action. This is the scheduler/driver split of
//! classic discrete-event simulation (and of the related repos' sched
//! cores): *what* happens lives in the component, *when* lives in the
//! engine.
//!
//! The components of the simulated SoC map onto the trait as follows:
//!
//! * **Cores** are the active components: each tile program runs as a
//!   *suspended coroutine task* (`CoreTask`) — a parked OS thread
//!   resumed by rendezvous handoff, so the blocking `Cpu` API (and the
//!   whole annotation runtime above it) runs unchanged. At any moment
//!   at most one task is runnable; the engine thread and the running
//!   task alternate, so the run is logically single-threaded and
//!   deterministic by construction.
//! * **NoC links, per-tile DMA engines and the SDRAM controller** are
//!   *passive* busy-until resources: their schedules are computed at
//!   issue time (`Noc::reserve_path`, `DmaEngine::issue`,
//!   `reserve_sdram`) and their in-flight effects are timestamped
//!   packets applied in arrival order at commit points. They need no
//!   heap entries of their own — every instant at which they could
//!   change observable state is already a core commit point — but any
//!   future *active* component (an open-loop load generator, a
//!   preemption injector) plugs into the same [`Component`] trait.
//!
//! ## The horizon optimisation
//!
//! A resumed task does not yield back after a single action: the engine
//! hands it the current *horizon* — the earliest `(time, id)` event of
//! any other component — and the task keeps committing actions while
//! its own `(clock, tile)` stays strictly below that horizon. Other
//! components cannot change their announced times while the task runs
//! (only a ticking component moves its own clock), so the horizon is
//! stable and the global `(virtual_time, tile)` commit order is
//! preserved exactly. Consecutive actions by the same tile — the common
//! case — cost zero handoffs.
//!
//! Same configuration and programs ⇒ the same `(virtual_time, tile)`
//! commit order and the same NoC drain points, so counters, traces,
//! telemetry streams and memory contents are bit-identical from run to
//! run; `tests/engine.rs` pins them against committed golden digests.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};

/// A `(virtual_time, component_id)` scheduling bound: a task may commit
/// actions while its own `(clock, tile)` is strictly below the horizon.
pub type Horizon = (u64, usize);

/// The horizon when no other component has a pending event: run to
/// completion without yielding.
pub const HORIZON_NONE: Horizon = (u64::MAX, usize::MAX);

/// Engine → task resume message.
pub(crate) enum Go {
    /// Run until `(clock, tile)` reaches `horizon`, then yield.
    Run { horizon: Horizon },
    /// The run is aborting (another tile panicked): unwind.
    Abort,
}

/// Task → engine yield message.
pub(crate) enum TaskYield {
    /// The task's next globally visible action is at virtual time `at`.
    Ready { at: u64 },
    /// The tile program returned; its counters are recorded.
    Done,
    /// The tile program panicked; the payload is in the `Soc` slot.
    Panicked,
}

/// The task-side half of the engine⇄task rendezvous, owned by the
/// tile's `Cpu`. `ensure_turn` is the coroutine yield point: it blocks
/// the task thread until the engine schedules this tile.
pub(crate) struct TaskPort {
    go_rx: Receiver<Go>,
    yield_tx: SyncSender<TaskYield>,
    horizon: Horizon,
}

impl TaskPort {
    pub(crate) fn new(go_rx: Receiver<Go>, yield_tx: SyncSender<TaskYield>) -> Self {
        // The initial horizon forces the first action to yield: every
        // task announces its first event before the loop starts.
        TaskPort { go_rx, yield_tx, horizon: (0, 0) }
    }

    /// Block until the engine hands this tile the turn for an action at
    /// `(clock, tile)` — or return immediately if the task is still
    /// strictly below its horizon (no other component acts earlier).
    ///
    /// Panics with the abort message when the engine resumes the task
    /// only to unwind it (another tile panicked).
    pub(crate) fn ensure_turn(&mut self, clock: u64, tile: usize) {
        if (clock, tile) < self.horizon {
            return;
        }
        self.yield_tx
            .send(TaskYield::Ready { at: clock })
            .expect("discrete-event engine hung up mid-run");
        match self.go_rx.recv().expect("discrete-event engine hung up mid-run") {
            Go::Run { horizon } => self.horizon = horizon,
            Go::Abort => {
                panic!("tile {tile}: simulation aborted by a panic on another tile")
            }
        }
    }
}

/// Aggregate statistics of one discrete-event run — the "state counts"
/// pinned by the scale benchmark (`bench_sweep`'s `scale` section).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Heap events processed (scheduler loop iterations).
    pub events: u64,
    /// Engine⇄task rendezvous handoffs (resume + yield pairs). Always
    /// ≤ `events`; the gap is horizon-elided handoffs plus abort/done
    /// bookkeeping.
    pub handoffs: u64,
    /// Peak event-heap depth (bounded by the number of live components).
    pub peak_queue: usize,
}

/// A schedulable simulation component.
///
/// The contract: `next_tick()` returns the virtual time of the
/// component's next event (`None` once it is finished and should leave
/// the schedule); `tick()` performs everything the component does at
/// that time and updates its own `next_tick()`. A component must never
/// move backwards — `next_tick()` after a tick at time `t` must be
/// `≥ t` (debug-asserted by the engine).
pub trait Component {
    /// Virtual time of the next event, or `None` when retired.
    fn next_tick(&self) -> Option<u64>;
    /// Act at the current event time. `ctx` exposes the scheduling
    /// horizon and the run statistics.
    fn tick(&mut self, ctx: &mut EngineCtx);
}

/// The engine state a ticking component may consult: the event heap
/// (as a horizon) and the run statistics. Kept separate from the
/// component list so `tick(&mut self, ctx)` borrows cleanly.
pub struct EngineCtx {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Statistics accumulated over the run.
    pub stats: EngineStats,
}

impl EngineCtx {
    /// The earliest pending event of any *other* component (the ticking
    /// component's own entry is popped before `tick` runs).
    pub fn horizon(&self) -> Horizon {
        self.heap.peek().map_or(HORIZON_NONE, |&Reverse(e)| e)
    }
}

/// The discrete-event scheduler: a component list plus the min-heap of
/// their pending events, processed in `(time, component_id)` order.
///
/// Component ids are assigned densely in [`Engine::add`] order; ties at
/// equal times resolve to the lowest id, so registering core tasks in
/// tile order yields the `(clock, tile)` commit order.
pub struct Engine<'c> {
    ctx: EngineCtx,
    components: Vec<Box<dyn Component + 'c>>,
}

impl<'c> Engine<'c> {
    pub fn new() -> Self {
        Engine {
            ctx: EngineCtx { heap: BinaryHeap::new(), stats: EngineStats::default() },
            components: Vec::new(),
        }
    }

    /// Register a component; returns its dense id (= tie-break rank).
    pub fn add(&mut self, c: Box<dyn Component + 'c>) -> usize {
        self.components.push(c);
        self.components.len() - 1
    }

    /// Drive the event loop until no component has a pending event.
    ///
    /// In-flight packets (posted writes racing a finished program) may
    /// still be queued when the loop ends; `Soc::run` drains them after
    /// the loop returns, so host-side readback sees the completed run.
    pub fn run(mut self) -> EngineStats {
        for (i, c) in self.components.iter().enumerate() {
            if let Some(t) = c.next_tick() {
                self.ctx.heap.push(Reverse((t, i)));
            }
        }
        self.ctx.stats.peak_queue = self.ctx.heap.len();
        while let Some(Reverse((t, i))) = self.ctx.heap.pop() {
            self.ctx.stats.events += 1;
            self.components[i].tick(&mut self.ctx);
            if let Some(next) = self.components[i].next_tick() {
                debug_assert!(next >= t, "component {i} scheduled backwards: {next} < {t}");
                self.ctx.heap.push(Reverse((next, i)));
                self.ctx.stats.peak_queue = self.ctx.stats.peak_queue.max(self.ctx.heap.len());
            }
        }
        self.ctx.stats
    }
}

impl Default for Engine<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// Scheduling state of a [`CoreTask`].
enum TaskState {
    /// Spawned; first yield not yet collected.
    Pending,
    /// Parked, next action announced at this virtual time.
    Ready(u64),
    /// Program returned or unwound; off the schedule.
    Done,
}

/// The engine-side handle of one tile's coroutine task: a parked OS
/// thread running the tile program against the blocking `Cpu` API,
/// resumed by rendezvous handoff at each scheduled event.
pub(crate) struct CoreTask<'a> {
    go_tx: SyncSender<Go>,
    yield_rx: Receiver<TaskYield>,
    /// Set by any panicking task (via `Soc::abort`); ticking a parked
    /// task under an abort unwinds it instead of running it.
    aborted: &'a AtomicBool,
    state: TaskState,
}

impl<'a> CoreTask<'a> {
    pub(crate) fn new(
        go_tx: SyncSender<Go>,
        yield_rx: Receiver<TaskYield>,
        aborted: &'a AtomicBool,
    ) -> Self {
        CoreTask { go_tx, yield_rx, aborted, state: TaskState::Pending }
    }

    /// Block for the task's first yield — its first action time, or an
    /// immediate completion. Called once per task before the event loop
    /// starts, in tile order.
    pub(crate) fn collect_first(&mut self) {
        debug_assert!(matches!(self.state, TaskState::Pending));
        self.state = match self.yield_rx.recv().expect("core task hung up before first yield") {
            TaskYield::Ready { at } => TaskState::Ready(at),
            TaskYield::Done | TaskYield::Panicked => TaskState::Done,
        };
    }
}

impl Component for CoreTask<'_> {
    fn next_tick(&self) -> Option<u64> {
        match self.state {
            TaskState::Ready(at) => Some(at),
            TaskState::Pending | TaskState::Done => None,
        }
    }

    fn tick(&mut self, ctx: &mut EngineCtx) {
        if self.aborted.load(Ordering::SeqCst) {
            // Unwind the parked task (it panics out of its yield point)
            // and drain its final report.
            let _ = self.go_tx.send(Go::Abort);
            let _ = self.yield_rx.recv();
            self.state = TaskState::Done;
            return;
        }
        ctx.stats.handoffs += 1;
        self.go_tx
            .send(Go::Run { horizon: ctx.horizon() })
            .expect("core task hung up while parked");
        self.state = match self.yield_rx.recv().expect("core task hung up mid-action") {
            TaskYield::Ready { at } => TaskState::Ready(at),
            TaskYield::Done | TaskYield::Panicked => TaskState::Done,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A synthetic component ticking at a fixed period for `n` events,
    /// appending its id to a shared log.
    struct Metronome {
        id: usize,
        period: u64,
        at: u64,
        left: u32,
        log: Rc<Cell<Vec<(u64, usize)>>>,
    }

    impl Component for Metronome {
        fn next_tick(&self) -> Option<u64> {
            (self.left > 0).then_some(self.at)
        }
        fn tick(&mut self, _ctx: &mut EngineCtx) {
            let mut log = self.log.take();
            log.push((self.at, self.id));
            self.log.set(log);
            self.left -= 1;
            self.at += self.period;
        }
    }

    /// Events fire in global `(time, id)` order regardless of
    /// registration interleaving, and the stats count them.
    #[test]
    fn heap_orders_events_by_time_then_id() {
        let log = Rc::new(Cell::new(Vec::new()));
        let mut eng = Engine::new();
        for (id, (period, start)) in [(7u64, 0u64), (5, 3), (7, 0)].into_iter().enumerate() {
            eng.add(Box::new(Metronome { id, period, at: start, left: 4, log: Rc::clone(&log) }));
        }
        let stats = eng.run();
        let events = log.take();
        assert_eq!(stats.events, 12);
        assert_eq!(events.len(), 12);
        let mut sorted = events.clone();
        sorted.sort();
        assert_eq!(events, sorted, "commit order must be (time, id)");
        // Components 0 and 2 are identical metronomes: id breaks ties.
        assert!(events.windows(2).all(|w| w[0] < w[1]));
        assert!(stats.peak_queue <= 3);
    }

    /// A retired component (`next_tick` = None) leaves the schedule.
    #[test]
    fn retired_components_leave_the_schedule() {
        let log = Rc::new(Cell::new(Vec::new()));
        let mut eng = Engine::new();
        eng.add(Box::new(Metronome { id: 0, period: 1, at: 0, left: 2, log: Rc::clone(&log) }));
        eng.add(Box::new(Metronome { id: 1, period: 1, at: 10, left: 0, log: Rc::clone(&log) }));
        let stats = eng.run();
        assert_eq!(stats.events, 2);
        assert_eq!(log.take(), vec![(0, 0), (1, 0)]);
    }
}
