//! Derived indexes over state that never changes after build
//! (`docs/SPATIAL.md`, "Derived indexes"): who can hear whom, who shares
//! a connected component, which device owns an address, and the
//! earliest pending wake. They turn the per-event walks over every
//! device into walks over a neighbourhood or a component. None of this
//! is part of a snapshot's wire form: a decoded simulator rebuilds it.

use btsim_baseband::BdAddr;
use btsim_channel::{Position, SpatialConfig};
use btsim_kernel::{SimTime, Snap, SnapReader, SnapWriter, SnapshotError};

/// The static lookup tables of one world.
#[derive(Debug, Clone, Default)]
pub(super) struct Indexes {
    /// Every device, ascending: the neighbourhood and the component of
    /// every device without a spatial model.
    all: Vec<usize>,
    /// Spatial mode: per device, the other devices within interaction
    /// range, ascending. Empty without a spatial model.
    near: Vec<Vec<usize>>,
    /// Spatial mode: per component id, its members, ascending.
    members: Vec<Vec<usize>>,
    /// `(address, device)` sorted by address, for binary search (the
    /// first device, should two share an address).
    by_addr: Vec<(BdAddr, usize)>,
}

impl Indexes {
    /// Indexes `addrs` (one per device, in device order); `near` and
    /// `comp_of` are empty without a spatial model.
    pub(super) fn new(
        addrs: impl ExactSizeIterator<Item = BdAddr>,
        near: Vec<Vec<usize>>,
        comp_of: &[usize],
    ) -> Self {
        let all: Vec<usize> = (0..addrs.len()).collect();
        let mut by_addr: Vec<(BdAddr, usize)> = addrs.zip(0..).collect();
        by_addr.sort_by_key(|&(addr, _)| addr); // stable: first device first
        by_addr.dedup_by_key(|&mut (addr, _)| addr);
        let mut members = vec![Vec::new(); comp_of.iter().max().map_or(0, |&c| c + 1)];
        for (d, &c) in comp_of.iter().enumerate() {
            members[c].push(d);
        }
        Self {
            all,
            near,
            members,
            by_addr,
        }
    }

    /// The devices a transmission by `dev` can reach, ascending. Without
    /// a spatial model that is every device — `dev` itself included, so
    /// callers skip it.
    pub(super) fn neighbours(&self, dev: usize) -> &[usize] {
        if self.near.is_empty() {
            &self.all
        } else {
            &self.near[dev]
        }
    }

    /// The members of component `comp`, ascending (`None`: every device,
    /// the one implicit component without a spatial model).
    pub(super) fn members(&self, comp: Option<usize>) -> &[usize] {
        comp.map_or(&self.all, |c| &self.members[c])
    }

    /// The device with address `addr`, if any.
    pub(super) fn device_by_addr(&self, addr: BdAddr) -> Option<usize> {
        let i = self.by_addr.binary_search_by_key(&addr, |&(a, _)| a).ok()?;
        Some(self.by_addr[i].1)
    }
}

/// The in-range graph of devices at `positions`: each device's
/// neighbour list and its component id. Both are empty without a
/// spatial model, where every device hears every other.
pub(super) fn in_range_graph(
    spatial: Option<&SpatialConfig>,
    positions: &[Position],
) -> (Vec<Vec<usize>>, Vec<usize>) {
    match spatial {
        Some(spatial) => {
            let near = spatial.neighbour_lists(positions);
            let comp_of = components(&near);
            (near, comp_of)
        }
        None => (Vec::new(), Vec::new()),
    }
}

/// Dense component ids (`0..n_components`, numbered in order of each
/// component's lowest device) of the graph given as adjacency lists.
fn components(near: &[Vec<usize>]) -> Vec<usize> {
    let n = near.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    for (i, adj) in near.iter().enumerate() {
        for &j in adj.iter().filter(|&&j| j > i) {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri != rj {
                parent[ri.max(rj)] = ri.min(rj);
            }
        }
    }
    let mut dense = vec![usize::MAX; n];
    let mut next = 0;
    (0..n)
        .map(|d| {
            let root = find(&mut parent, d);
            if dense[root] == usize::MAX {
                dense[root] = next;
                next += 1;
            }
            dense[root]
        })
        .collect()
}

/// The event engine's per-device pending wake instants, stored as the
/// leaves of a min segment tree: setting one wake is O(log N) and the
/// earliest wake is the root. Snapshots carry only the leaves, in the
/// plain `Vec<Option<SimTime>>` wire form.
#[derive(Debug, Clone)]
pub(super) struct WakeTree {
    len: usize,
    /// `node[1]` is the root, node `i` has children `2i` and `2i + 1`,
    /// and the leaves sit at `node[width..width + len]`.
    node: Vec<Option<SimTime>>,
}

/// The earlier of two wakes, where `None` (no wake) is later than any.
fn earlier(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl WakeTree {
    /// A tree over `wakes`, one per device.
    pub(super) fn new(wakes: &[Option<SimTime>]) -> Self {
        let width = wakes.len().next_power_of_two();
        let mut node = vec![None; 2 * width];
        node[width..width + wakes.len()].copy_from_slice(wakes);
        for i in (1..width).rev() {
            node[i] = earlier(node[2 * i], node[2 * i + 1]);
        }
        Self {
            len: wakes.len(),
            node,
        }
    }

    fn width(&self) -> usize {
        self.node.len() / 2
    }

    /// Number of devices.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// `dev`'s pending wake.
    pub(super) fn get(&self, dev: usize) -> Option<SimTime> {
        self.node[self.width() + dev]
    }

    /// Sets `dev`'s pending wake.
    pub(super) fn set(&mut self, dev: usize, at: Option<SimTime>) {
        let mut i = self.width() + dev;
        self.node[i] = at;
        while i > 1 {
            i /= 2;
            let min = earlier(self.node[2 * i], self.node[2 * i + 1]);
            if self.node[i] == min {
                break; // every ancestor is unchanged too
            }
            self.node[i] = min;
        }
    }

    /// The earliest pending wake over all devices.
    pub(super) fn earliest(&self) -> Option<SimTime> {
        self.node[1]
    }
}

impl Snap for WakeTree {
    fn snap(&self, w: &mut SnapWriter) {
        // Only the leaves are written; decode rebuilds the inner nodes.
        let WakeTree { len, node } = self;
        w.put_usize(*len);
        let width = self.width();
        for wake in &node[width..width + len] {
            wake.snap(w);
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self::new(&Vec::<Option<SimTime>>::unsnap(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_tree_tracks_the_minimum() {
        let t = |us| Some(SimTime::from_us(us));
        let mut tree = WakeTree::new(&[t(30), None, t(10), t(20), None]);
        assert_eq!(tree.earliest(), t(10));
        tree.set(2, None);
        assert_eq!(tree.earliest(), t(20));
        tree.set(4, t(5));
        assert_eq!((tree.earliest(), tree.get(4), tree.len()), (t(5), t(5), 5));
        for d in 0..5 {
            tree.set(d, None);
        }
        assert_eq!(tree.earliest(), None);
        assert_eq!(WakeTree::new(&[]).earliest(), None);
        assert_eq!(WakeTree::new(&[t(7)]).earliest(), t(7));
    }

    #[test]
    fn components_are_numbered_by_lowest_member() {
        // 0-3 and 1-4 linked, 2 alone.
        let near = vec![vec![3], vec![4], vec![], vec![0], vec![1]];
        assert_eq!(components(&near), vec![0, 1, 2, 0, 1]);
        let idx = Indexes::new(
            [9, 3, 9, 5, 4]
                .map(|lap| BdAddr::new(0, 0, lap))
                .into_iter(),
            near,
            &[0, 1, 2, 0, 1],
        );
        assert_eq!(idx.members(Some(1)), &[1, 4]);
        assert_eq!(idx.members(None), &[0, 1, 2, 3, 4]);
        assert_eq!(idx.neighbours(3), &[0]);
        assert_eq!(idx.device_by_addr(BdAddr::new(0, 0, 4)), Some(4));
        assert_eq!(
            idx.device_by_addr(BdAddr::new(0, 0, 9)),
            Some(0),
            "first owner"
        );
        assert_eq!(idx.device_by_addr(BdAddr::new(0, 0, 7)), None);
    }
}
