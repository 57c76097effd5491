//! Unit tests of the [`interval`](crate::interval) index.
//!
//! They live in a module of their own, named `splay` after the splay tree the index
//! replaced, so that each test keeps the name it has always been reported under.

mod tests {
    use crate::interval::{Interval, IntervalIndex, LookupStats};

    fn tree_with(ranges: &[(u64, u64)]) -> IntervalIndex<usize> {
        let mut t = IntervalIndex::new();
        for (i, (s, e)) in ranges.iter().enumerate() {
            t.insert(Interval::new(*s, *e), i);
        }
        t
    }

    #[test]
    fn interval_basics() {
        let iv = Interval::new(0x100, 0x140);
        assert!(iv.contains(0x100));
        assert!(iv.contains(0x13f));
        assert!(!iv.contains(0x140));
        assert!(!iv.contains(0xff));
        assert_eq!(iv.len(), 0x40);
        assert!(!iv.is_empty());
    }

    #[test]
    #[should_panic(expected = "greater than start")]
    fn empty_interval_rejected() {
        let _ = Interval::new(0x100, 0x100);
    }

    #[test]
    fn insert_and_lookup_by_containment() {
        let mut t = tree_with(&[(0x00, 0x60), (0x80, 0x100), (0x200, 0x240)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(0x53).map(|(_, v)| *v), Some(0));
        assert_eq!(t.lookup(0xfe).map(|(_, v)| *v), Some(1));
        assert_eq!(t.lookup(0x200).map(|(_, v)| *v), Some(2));
        assert_eq!(t.lookup(0x60), None, "end is exclusive");
        assert_eq!(t.lookup(0x150), None, "gap between intervals");
        assert_eq!(t.lookups(), 5);
        assert_eq!(t.hits(), 3);
    }

    #[test]
    fn find_is_read_only_and_agrees_with_lookup() {
        let mut t = tree_with(&[(0x00, 0x60), (0x80, 0x100)]);
        for addr in [0x0u64, 0x30, 0x5f, 0x60, 0x7f, 0x80, 0xff, 0x100] {
            let by_find = t.find(addr).map(|(_, v)| *v);
            let by_lookup = t.lookup(addr).map(|(_, v)| *v);
            assert_eq!(by_find, by_lookup, "addr {addr:#x}");
        }
        assert_eq!(t.find(0x30).map(|(i, _)| i), Some(Interval::new(0x00, 0x60)));
    }

    #[test]
    fn read_lookups_are_counted_separately_from_splaying_lookups() {
        let mut t = tree_with(&[(0x00, 0x60), (0x80, 0x100)]);
        assert_eq!(t.read_lookups(), 0);
        t.find(0x30); // hit
        t.find(0x70); // miss
        t.find(0x90); // hit
        assert_eq!(t.read_lookups(), 3);
        assert_eq!(t.read_hits(), 2);
        assert_eq!(t.lookups(), 0, "find never counts as a shard lookup");
        t.lookup(0x30);
        let stats = t.stats();
        assert_eq!(
            stats,
            LookupStats {
                lookups: 1,
                hits: 1,
                read_lookups: 3,
                read_hits: 2,
                ..Default::default()
            }
        );
        assert!((stats.hit_fraction() - 1.0).abs() < 1e-12);
        let mut merged = stats;
        merged.merge(&LookupStats {
            lookups: 1,
            hits: 0,
            read_lookups: 2,
            read_hits: 1,
            cache_lookups: 4,
            cache_hits: 3,
        });
        assert_eq!(
            merged,
            LookupStats {
                lookups: 2,
                hits: 1,
                read_lookups: 5,
                read_hits: 3,
                cache_lookups: 4,
                cache_hits: 3,
            }
        );
        let text = merged.to_string();
        assert!(text.contains("lookups=2"));
        assert!(text.contains("read_lookups=5"));
        assert_eq!(LookupStats::default().hit_fraction(), 0.0);
    }

    #[test]
    fn remove_then_lookup_misses() {
        let mut t = tree_with(&[(0x00, 0x60), (0x80, 0x100), (0x200, 0x240)]);
        let (iv, v) = t.remove(0x90).unwrap();
        assert_eq!(iv, Interval::new(0x80, 0x100));
        assert_eq!(v, 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(0x90), None);
        assert_eq!(t.lookup(0x30).map(|(_, v)| *v), Some(0));
        assert_eq!(t.lookup(0x210).map(|(_, v)| *v), Some(2));
        assert_eq!(t.remove(0x90), None, "double remove is a miss");
    }

    #[test]
    fn insert_with_start_inside_existing_replaces() {
        let mut t = IntervalIndex::new();
        t.insert(Interval::new(0x100, 0x200), 1);
        // An allocation reusing memory the profiler still thinks belongs to value 1.
        let old = t.insert(Interval::new(0x100, 0x180), 2);
        assert_eq!(old, Some((Interval::new(0x100, 0x200), 1)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(0x150).map(|(_, v)| *v), Some(2));
        assert_eq!(t.lookup(0x190), None, "the range shrank to the new object's size");
        // A start strictly inside the stored range replaces it too.
        let old = t.insert(Interval::new(0x140, 0x160), 3);
        assert_eq!(old, Some((Interval::new(0x100, 0x180), 2)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(0x110), None, "the range moved to the new object's start");
        assert_eq!(t.lookup(0x150).map(|(_, v)| *v), Some(3));
    }

    #[test]
    fn move_pattern_remove_and_reinsert() {
        // A single relocation outside a collection batch: remove by old address,
        // insert the new range.
        let mut t = IntervalIndex::new();
        t.insert(Interval::new(0x1000, 0x1100), "obj");
        let (_, v) = t.remove(0x1000).unwrap();
        t.insert(Interval::new(0x2000, 0x2100), v);
        assert_eq!(t.lookup(0x1050), None);
        assert_eq!(t.lookup(0x2050).map(|(_, v)| *v), Some("obj"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iteration_is_sorted_by_start() {
        let ranges: Vec<(u64, u64)> =
            (0..50u64).rev().map(|i| (i * 0x100, i * 0x100 + 0x80)).collect();
        let mut t = tree_with(&ranges);
        // Lookups leave the order as it is.
        for i in [3u64, 47, 12, 0, 30] {
            t.lookup(i * 0x100 + 1);
        }
        let starts: Vec<u64> = t.iter().map(|(iv, _)| iv.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
        assert_eq!(starts.len(), 50);
    }

    #[test]
    fn clear_empties_the_tree() {
        let mut t = tree_with(&[(0x0, 0x10), (0x20, 0x30)]);
        assert!(t.approx_bytes() > 0);
        t.clear();
        assert_eq!(t.approx_bytes(), 0);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup(0x5), None);
    }

    #[test]
    fn many_disjoint_intervals_stay_consistent() {
        let n = 2000u64;
        let mut t = IntervalIndex::new();
        for i in 0..n {
            t.insert(Interval::new(i * 64, i * 64 + 64), i);
        }
        assert_eq!(t.len() as u64, n);
        // Every address maps to its interval.
        for i in (0..n).step_by(37) {
            assert_eq!(t.lookup(i * 64 + 13).map(|(_, v)| *v), Some(i));
        }
        // Remove every third interval.
        for i in (0..n).step_by(3) {
            assert!(t.remove(i * 64).is_some());
        }
        for i in 0..n {
            let expect = if i % 3 == 0 { None } else { Some(i) };
            assert_eq!(t.lookup(i * 64 + 1).map(|(_, v)| *v), expect, "interval {i}");
        }
    }

    #[test]
    fn adversarial_sequential_lookups_do_not_overflow_stack() {
        // Strictly ascending insertion (bump allocation) appends at the tail; lookups
        // at both ends stay correct and nothing recurses.
        let n = 50_000u64;
        let mut t = IntervalIndex::new();
        for i in 0..n {
            t.insert(Interval::new(i * 16, i * 16 + 16), i);
        }
        assert_eq!(t.lookup(0).map(|(_, v)| *v), Some(0));
        assert_eq!(t.lookup((n - 1) * 16).map(|(_, v)| *v), Some(n - 1));
        drop(t);
    }

    #[test]
    fn rebuild_drops_and_merges_in_one_pass() {
        let mut t = tree_with(&[(0x000, 0x100), (0x100, 0x200), (0x300, 0x400), (0x500, 0x600)]);
        // A sliding collection: 0x100 is reclaimed, 0x300 slides down to 0x100 and
        // 0x500 to 0x200; an unknown object lands at 0x700.
        t.rebuild(
            &[0x100, 0x300, 0x500],
            vec![
                (Interval::new(0x200, 0x300), 3),
                (Interval::new(0x700, 0x780), 9),
                (Interval::new(0x100, 0x200), 2),
            ],
        );
        let entries: Vec<(Interval, usize)> = t.iter().map(|(iv, v)| (iv, *v)).collect();
        assert_eq!(
            entries,
            vec![
                (Interval::new(0x000, 0x100), 0),
                (Interval::new(0x100, 0x200), 2),
                (Interval::new(0x200, 0x300), 3),
                (Interval::new(0x700, 0x780), 9),
            ]
        );
        assert_eq!(t.lookup(0x350), None, "the slid-away range is cold");
        assert_eq!(t.lookup(0x1ff).map(|(_, v)| *v), Some(2));
        // Starts that are not stored are ignored; an empty batch changes nothing.
        t.rebuild(&[0x080, 0x900], Vec::new());
        assert_eq!(t.len(), 4);
        // An added interval sharing a stored start resolves ahead of it.
        t.rebuild(&[], vec![(Interval::new(0x700, 0x740), 10)]);
        assert_eq!(t.lookup(0x710).map(|(_, v)| *v), Some(10));
    }

    #[test]
    fn rebuild_into_an_empty_index_sorts_the_batch() {
        let mut t: IntervalIndex<u64> = IntervalIndex::new();
        let added: Vec<(Interval, u64)> = (0..100u64)
            .rev()
            .map(|i| (Interval::new(i * 0x40, i * 0x40 + 0x20), i))
            .collect();
        t.rebuild(&[], added);
        assert_eq!(t.len(), 100);
        for i in 0..100u64 {
            assert_eq!(t.find(i * 0x40 + 0x10).map(|(_, v)| *v), Some(i));
            assert_eq!(t.find(i * 0x40 + 0x30), None);
        }
    }
}
