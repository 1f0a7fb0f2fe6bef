//! The decision heuristic: an EVSIDS-style activity order with phase
//! saving.
//!
//! Variables seen during conflict analysis get their activity bumped; the
//! increment inflates geometrically after every conflict (equivalent to
//! decaying all activities), with a rescale when values approach the f64
//! range. Decisions pop the most active unassigned variable from an indexed
//! binary max-heap and assign its saved phase (last value it held on the
//! trail; initially `false`). Everything is deterministic: activities evolve
//! by a fixed arithmetic schedule and heap ties resolve by structure.

#[derive(Clone, Debug)]
pub(super) struct VarOrder {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or -1 when absent.
    pos: Vec<i32>,
    activity: Vec<f64>,
    inc: f64,
    /// Saved phase per variable (assigned value the last time it left the
    /// trail).
    pub phase: Vec<bool>,
}

const VAR_RESCALE: f64 = 1e100;
const VAR_DECAY: f64 = 0.95;

impl VarOrder {
    pub fn new(num_vars: usize) -> Self {
        VarOrder {
            heap: (0..num_vars as u32).collect(),
            pos: (0..num_vars as i32).collect(),
            activity: vec![0.0; num_vars],
            inc: 1.0,
            phase: vec![false; num_vars],
        }
    }

    #[inline]
    fn gt(&self, a: u32, b: u32) -> bool {
        self.activity[a as usize] > self.activity[b as usize]
    }

    #[inline]
    fn place(&mut self, i: usize, v: u32) {
        self.heap[i] = v;
        self.pos[v as usize] = i as i32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.heap[parent];
            if self.gt(v, pv) {
                self.place(i, pv);
                i = parent;
            } else {
                break;
            }
        }
        self.place(i, v);
    }

    fn sift_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.gt(self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let cv = self.heap[child];
            if self.gt(cv, v) {
                self.place(i, cv);
                i = child;
            } else {
                break;
            }
        }
        self.place(i, v);
    }

    /// Bumps a variable's activity (rescaling everything on overflow).
    pub fn bump(&mut self, var: usize) {
        self.activity[var] += self.inc;
        if self.activity[var] > VAR_RESCALE {
            for a in &mut self.activity {
                *a /= VAR_RESCALE;
            }
            self.inc /= VAR_RESCALE;
        }
        if self.pos[var] >= 0 {
            self.sift_up(self.pos[var] as usize);
        }
    }

    /// Decays all activities by inflating the increment.
    pub fn decay(&mut self) {
        self.inc /= VAR_DECAY;
    }

    /// Re-inserts a variable that became unassigned.
    pub fn insert(&mut self, var: usize) {
        if self.pos[var] < 0 {
            let i = self.heap.len();
            self.heap.push(var as u32);
            self.pos[var] = i as i32;
            self.sift_up(i);
        }
    }

    /// Pops the most active unassigned variable, discarding stale (assigned)
    /// heap entries along the way. Returns `None` only when every variable
    /// is assigned.
    pub fn pick(&mut self, assigns: &[Option<bool>]) -> Option<usize> {
        while let Some(&root) = self.heap.first() {
            self.remove_root();
            if assigns[root as usize].is_none() {
                return Some(root as usize);
            }
        }
        None
    }

    fn remove_root(&mut self) {
        let root = self.heap[0];
        self.pos[root as usize] = -1;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.place(0, last);
            self.sift_down(0);
        }
    }
}
