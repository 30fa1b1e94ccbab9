//! A 4-ary min-heap of small `Copy` nodes ordered by one packed `u128` key.
//!
//! Both simulators' priority queues are this structure: the engine's event
//! queue (key `time_ns << 64 | seq << 24 | slot`, no payload: the slab
//! slot rides in the key's low bits) and the direct replica's PE ready
//! queue (key: an order-preserving image of the availability time
//! `<< 64 | pe`, payload the time itself). Neither ever
//! queues two equal keys, so any exact min-heap pops the same sequence;
//! this one is chosen for speed:
//!
//! * **Four children per node** halve the depth of a binary heap, and the
//!   four siblings sit next to each other (one or two cache lines), so a
//!   pop touches about half as many lines.
//! * **One integer key.** Comparisons are a single `u128` compare — no
//!   tuple lexicography, no `Ord` dispatch, no float partial-order checks
//!   (the float-to-key mapping happens once per push, in the caller).
//! * **Branch-free child selection.** The min of four siblings is two
//!   independent pairwise selects and a final select, written so the
//!   compiler emits conditional moves: the winner depends on the data, but
//!   no branch does.

/// One heap entry. The key is stored as two words rather than a `u128`
/// field, whose 16-byte alignment would pad a node with a 4- or 8-byte
/// payload from 24 to 32 bytes; with no payload (`T = ()`) a node is the
/// key's 16 bytes alone.
#[derive(Clone, Copy)]
struct Node<T> {
    hi: u64,
    lo: u64,
    value: T,
}

impl<T> Node<T> {
    #[inline(always)]
    fn new(key: u128, value: T) -> Self {
        Node { hi: (key >> 64) as u64, lo: key as u64, value }
    }

    #[inline(always)]
    fn key(&self) -> u128 {
        (self.hi as u128) << 64 | self.lo as u128
    }
}

/// A min-heap over `(u128 key, T)` pairs with four children per node.
///
/// `pop` returns the entry with the smallest key. Among equal keys the
/// order is unspecified, so callers that need a deterministic sequence
/// must keep keys unique (both simulators do: see the module docs).
pub struct QuadHeap<T> {
    nodes: Vec<Node<T>>,
}

impl<T: Copy> Default for QuadHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> QuadHeap<T> {
    /// An empty heap.
    pub const fn new() -> Self {
        QuadHeap { nodes: Vec::new() }
    }

    /// An empty heap with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        QuadHeap { nodes: Vec::with_capacity(capacity) }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Reserves room for at least `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Queues `value` under `key`.
    #[inline]
    pub fn push(&mut self, key: u128, value: T) {
        let node = Node::new(key, value);
        let mut i = self.nodes.len();
        self.nodes.push(node);
        // Sift the hole up: move each larger parent down one level, then
        // write the new node once at its final position.
        while i > 0 {
            let parent = (i - 1) / 4;
            let up = self.nodes[parent];
            if up.key() <= key {
                break;
            }
            self.nodes[i] = up;
            i = parent;
        }
        self.nodes[i] = node;
    }

    /// The entry with the smallest key, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(u128, T)> {
        self.nodes.first().map(|top| (top.key(), top.value))
    }

    /// Replaces the smallest entry with `(key, value)`: the same heap as a
    /// `pop` followed by a `push`, for one sift instead of two.
    ///
    /// # Panics
    ///
    /// If the heap is empty.
    #[inline]
    pub fn replace_top(&mut self, key: u128, value: T) {
        assert!(!self.nodes.is_empty(), "replace_top on an empty heap");
        self.sift_down_from_root(Node::new(key, value));
    }

    /// Removes and returns the entry with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<(u128, T)> {
        let last = self.nodes.pop()?;
        let Some(&top) = self.nodes.first() else {
            return Some((last.key(), last.value));
        };
        self.sift_down_from_root(last);
        Some((top.key(), top.value))
    }

    /// Places `node` at the root's hole (the root's old entry is gone) and
    /// sifts it down to restore the heap order.
    #[inline]
    fn sift_down_from_root(&mut self, node: Node<T>) {
        let key = node.key();
        let len = self.nodes.len();
        let mut i = 0;
        loop {
            let first = 4 * i + 1;
            let child = if let Some(group) = self.nodes.get(first..first + 4) {
                let group: &[Node<T>; 4] = group.try_into().expect("slice of four");
                first + min_of_four(group)
            } else if first < len {
                // The last, partial sibling group (one to three children).
                let mut best = first;
                for c in first + 1..len {
                    if self.nodes[c].key() < self.nodes[best].key() {
                        best = c;
                    }
                }
                best
            } else {
                break;
            };
            let down = self.nodes[child];
            if key <= down.key() {
                break;
            }
            self.nodes[i] = down;
            i = child;
        }
        self.nodes[i] = node;
    }
}

/// Index (0..4) of the smallest key among four siblings, as two pairwise
/// selects feeding a third — conditional moves, not branches.
#[inline(always)]
fn min_of_four<T>(group: &[Node<T>; 4]) -> usize {
    let [k0, k1, k2, k3] = [group[0].key(), group[1].key(), group[2].key(), group[3].key()];
    let (i01, k01) = if k1 < k0 { (1, k1) } else { (0, k0) };
    let (i23, k23) = if k3 < k2 { (3, k3) } else { (2, k2) };
    if k23 < k01 {
        i23
    } else {
        i01
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_stay_24_bytes_with_small_payloads() {
        assert_eq!(std::mem::size_of::<Node<u32>>(), 24);
        assert_eq!(std::mem::size_of::<Node<f64>>(), 24);
        assert_eq!(std::mem::size_of::<Node<()>>(), 16);
    }

    #[test]
    fn pops_in_key_order() {
        let mut h = QuadHeap::new();
        for k in [5u128, 1, 9, 3, 7, 2, 8, 6, 4, 0, u128::MAX, 1 << 64] {
            h.push(k, k as u32);
        }
        let mut got = Vec::new();
        while let Some((k, v)) = h.pop() {
            assert_eq!(v, k as u32);
            got.push(k);
        }
        assert_eq!(got, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1 << 64, u128::MAX]);
        assert!(h.is_empty());
    }

    #[test]
    fn replace_top_equals_pop_then_push() {
        let keys = [40u128, 7, 33, 12, 90, 5, 61, 18, 27, 3, 74];
        let (mut a, mut b) = (QuadHeap::new(), QuadHeap::new());
        for &k in &keys {
            a.push(k, ());
            b.push(k, ());
        }
        for new in [50u128, 1, 95, 20, 8] {
            assert_eq!(a.peek(), b.peek());
            a.replace_top(new, ());
            b.pop();
            b.push(new, ());
        }
        let drain = |h: &mut QuadHeap<()>| std::iter::from_fn(|| h.pop()).collect::<Vec<_>>();
        assert_eq!(drain(&mut a), drain(&mut b));
        assert_eq!(a.peek(), None);
    }

    #[test]
    #[should_panic(expected = "replace_top on an empty heap")]
    fn replace_top_on_empty_panics() {
        QuadHeap::<()>::new().replace_top(1, ());
    }

    #[test]
    fn min_of_four_finds_every_position() {
        for pos in 0..4 {
            let mut group = [Node::new(10, ()); 4];
            for (i, n) in group.iter_mut().enumerate() {
                *n = Node::new(10 + i as u128, ());
            }
            group[pos] = Node::new(1, ());
            assert_eq!(min_of_four(&group), pos);
        }
    }
}
