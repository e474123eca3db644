//! The task table: slab-allocated task records with generation-tagged ids.
//!
//! Live tasks at any instant are O(tree depth × workers) — the classic
//! work-stealing space bound the paper leans on in Section 4 — so records
//! are recycled through a free list. Ids pack `(generation << 32) | slot`
//! so a stale id (e.g. lingering in diagnostics) can never alias a
//! recycled slot, and the id doubles as the byte-pattern seed for frame
//! verification.

use uat_base::{Cycles, WorkerId};
use uat_model::Action;

/// Packed task id: `(generation << 32) | slot`.
pub type TaskId64 = u64;

/// Where a task currently is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskWhere {
    /// Running on a worker (bottom of its uni-address region).
    Running(WorkerId),
    /// Continuation in a worker's deque; frames live on that worker.
    InDeque(WorkerId),
    /// Suspended on a worker's wait queue.
    Waiting(WorkerId),
    /// Mid-migration between workers.
    InFlight,
}

/// One live task.
#[derive(Debug)]
pub struct Task<D> {
    /// Packed id.
    pub id: TaskId64,
    /// The task's program, materialized at spawn.
    pub program: Vec<Action<D>>,
    /// Next action index.
    pub pc: u32,
    /// Children spawned and not yet completed.
    pub outstanding: u32,
    /// Parent task id (None for the root).
    pub parent: Option<TaskId64>,
    /// Current location.
    pub at: TaskWhere,
    /// Frame size in bytes.
    pub frame_size: u64,
    /// When the task began (its run length ends at its completion).
    pub born: Cycles,
    /// Sequence number of this task's latest deque publication (0 when
    /// none; set only by traced runs), paired by the steal that takes it.
    pub pub_seq: u64,
    /// The child whose completion last made this task's join ready
    /// (set only by traced runs), taken when the task resumes past it.
    pub join_enabler: Option<TaskId64>,
}

struct Slot<D> {
    generation: u32,
    task: Option<Task<D>>,
}

/// Slab of live tasks.
pub struct TaskTable<D> {
    slots: Vec<Slot<D>>,
    free: Vec<u32>,
    live: u64,
    peak_live: u64,
    total_spawned: u64,
}

impl<D> Default for TaskTable<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D> TaskTable<D> {
    /// Empty table.
    pub fn new() -> Self {
        TaskTable {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
            total_spawned: 0,
        }
    }

    /// Insert a task spawned at `born`; assigns and returns its id.
    pub fn spawn(
        &mut self,
        program: Vec<Action<D>>,
        parent: Option<TaskId64>,
        at: TaskWhere,
        frame_size: u64,
        born: Cycles,
    ) -> TaskId64 {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    task: None,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        let id = ((generation as u64) << 32) | slot as u64;
        self.slots[slot as usize].task = Some(Task {
            id,
            program,
            pc: 0,
            outstanding: 0,
            parent,
            at,
            frame_size,
            born,
            pub_seq: 0,
            join_enabler: None,
        });
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.total_spawned += 1;
        id
    }

    /// Access a live task.
    pub fn get(&self, id: TaskId64) -> &Task<D> {
        self.try_get(id)
            .unwrap_or_else(|| panic!("task {id:#x} is not live"))
    }

    /// Mutable access to a live task.
    pub fn get_mut(&mut self, id: TaskId64) -> &mut Task<D> {
        let slot = (id & 0xffff_ffff) as usize;
        let generation = (id >> 32) as u32;
        let s = &mut self.slots[slot];
        assert_eq!(s.generation, generation, "stale task id {id:#x}");
        s.task
            .as_mut()
            .unwrap_or_else(|| panic!("task {id:#x} freed"))
    }

    /// Access if live and current.
    pub fn try_get(&self, id: TaskId64) -> Option<&Task<D>> {
        let slot = (id & 0xffff_ffff) as usize;
        let generation = (id >> 32) as u32;
        let s = self.slots.get(slot)?;
        if s.generation != generation {
            return None;
        }
        s.task.as_ref()
    }

    /// Remove a completed task, recycling its slot.
    pub fn free(&mut self, id: TaskId64) -> Task<D> {
        let slot = (id & 0xffff_ffff) as usize;
        let generation = (id >> 32) as u32;
        let s = &mut self.slots[slot];
        assert_eq!(s.generation, generation, "stale task id {id:#x}");
        let t = s
            .task
            .take()
            .unwrap_or_else(|| panic!("double free of {id:#x}"));
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
        t
    }

    /// Tasks alive right now.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Peak simultaneous live tasks (the space bound).
    pub fn peak_live(&self) -> u64 {
        self.peak_live
    }

    /// Total tasks ever spawned.
    pub fn total_spawned(&self) -> u64 {
        self.total_spawned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TaskTable<u32> {
        TaskTable::new()
    }

    #[test]
    fn spawn_get_free_roundtrip() {
        let mut t = table();
        let id = t.spawn(
            vec![Action::Work(5)],
            None,
            TaskWhere::Running(WorkerId(0)),
            100,
            Cycles(7),
        );
        assert_eq!(t.live(), 1);
        assert_eq!(t.get(id).frame_size, 100);
        t.get_mut(id).pc = 1;
        assert_eq!(t.get(id).pc, 1);
        let rec = t.free(id);
        assert_eq!(rec.pc, 1);
        assert_eq!(rec.born, Cycles(7));
        assert_eq!(t.live(), 0);
        assert_eq!(t.total_spawned(), 1);
    }

    #[test]
    fn recycled_slot_gets_new_generation() {
        let mut t = table();
        let a = t.spawn(vec![], None, TaskWhere::InFlight, 0, Cycles::ZERO);
        t.free(a);
        let b = t.spawn(vec![], None, TaskWhere::InFlight, 0, Cycles::ZERO);
        assert_ne!(a, b, "generation differs");
        assert_eq!(a & 0xffff_ffff, b & 0xffff_ffff, "same slot reused");
        assert!(t.try_get(a).is_none(), "stale id rejected");
        assert!(t.try_get(b).is_some());
    }

    #[test]
    #[should_panic(expected = "stale task id")]
    fn stale_free_panics() {
        let mut t = table();
        let a = t.spawn(vec![], None, TaskWhere::InFlight, 0, Cycles::ZERO);
        t.free(a);
        t.spawn(vec![], None, TaskWhere::InFlight, 0, Cycles::ZERO);
        t.free(a);
    }

    #[test]
    fn peak_live_tracks() {
        let mut t = table();
        let ids: Vec<_> = (0..5)
            .map(|_| t.spawn(vec![], None, TaskWhere::InFlight, 0, Cycles::ZERO))
            .collect();
        for id in ids {
            t.free(id);
        }
        t.spawn(vec![], None, TaskWhere::InFlight, 0, Cycles::ZERO);
        assert_eq!(t.peak_live(), 5);
        assert_eq!(t.total_spawned(), 6);
    }

    #[test]
    fn parent_links() {
        let mut t = table();
        let at = TaskWhere::Running(WorkerId(1));
        let p = t.spawn(vec![], None, at, 10, Cycles::ZERO);
        let c = t.spawn(vec![], Some(p), at, 10, Cycles::ZERO);
        t.get_mut(p).outstanding += 1;
        assert_eq!(t.get(c).parent, Some(p));
        assert_eq!(t.get(p).outstanding, 1);
    }
}
