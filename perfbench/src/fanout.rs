//! `site-fanout`: a seeded workload whose sampled path does real work.
//!
//! Four logical threads (driven round-robin from one OS thread, like the suite
//! stand-ins) allocate a pool of monitored arrays from a few hundred allocation
//! sites at call depths 2–8, then probe that pool: each step picks one array by a
//! skewed seeded distribution and walks it with a cache-line-or-larger stride, so
//! nearly every load misses L1. A slow free/re-allocate churn keeps the object
//! index changing underneath the samples: freed slots are reused after the
//! collector compacts the heap, and every collection moves the surviving arrays.
//!
//! The shape is chosen so that resolution cannot be served almost entirely from
//! the per-thread resolution cache (a few thousand arrays span far more than the
//! cache's reach) and so that every export delta carries many sites.

use djx_runtime::{dsl, ClassId, GcConfig, MethodId, ObjRef, Runtime, RuntimeConfig, ThreadId};
use djx_workloads::Workload;

/// Element classes the sites allocate: `(name, element size in bytes)`.
const CLASSES: [(&str, u64); 8] = [
    ("double[]", 8),
    ("long[]", 8),
    ("int[]", 4),
    ("float[]", 4),
    ("char[]", 2),
    ("short[]", 2),
    ("byte[]", 1),
    ("java.lang.Object[]", 8),
];

/// Methods the allocation and access call paths are drawn from.
const METHODS: u32 = 48;

/// Parameters of one `site-fanout` instance. Every random choice derives from
/// `seed`; the counts fix the amount of work, so two seeds differ in layout and
/// access order but not in size.
#[derive(Debug, Clone)]
pub struct SiteFanout {
    /// Seed of every random choice.
    seed: u64,
    /// Logical application threads.
    threads: usize,
    /// Allocation sites (distinct class + call path pairs).
    sites: usize,
    /// Arrays kept live at once.
    pool: usize,
    /// Probe steps per thread.
    steps: u64,
    /// Strided loads per probe step.
    loads_per_step: u64,
    /// A thread frees and re-allocates one pool array every this many steps.
    churn_every: u64,
}

impl SiteFanout {
    /// The benchmark's sizing, with the step count multiplied by `scale`.
    pub fn new(seed: u64, scale: f64) -> Self {
        Self {
            seed,
            threads: 4,
            sites: 320,
            pool: 3000,
            steps: ((2_500.0 * scale).round() as u64).max(64),
            loads_per_step: 24,
            churn_every: 8,
        }
    }
}

/// SplitMix64: a small, fast, seedable generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A rank in `[0, n)` skewed towards 0: `P(rank < x·n) = x^(1/3)`, so the top
    /// 1% of ranks draws ~22% of picks and the top 10% ~46%.
    fn skewed(&mut self, n: usize) -> usize {
        ((n as f64 * self.unit().powi(3)) as usize).min(n - 1)
    }
}

/// One allocation site: a class and the call path that allocates it.
struct Site {
    class: ClassId,
    elem_size: u64,
    path: Vec<(MethodId, u32)>,
    /// The method the arrays of this site are probed from.
    kernel: MethodId,
}

/// One pool slot: the live array and the site that (re-)allocates it.
struct Slot {
    array: ObjRef,
    site: usize,
}

fn alloc_at(
    rt: &mut Runtime,
    thread: ThreadId,
    site: &Site,
    bytes: u64,
) -> djx_runtime::Result<ObjRef> {
    for &(method, bci) in &site.path {
        rt.push_frame(thread, method, bci)?;
    }
    let array = rt.alloc_array(thread, site.class, (bytes / site.elem_size).max(1));
    for _ in &site.path {
        rt.pop_frame(thread)?;
    }
    array
}

impl Workload for SiteFanout {
    fn name(&self) -> String {
        format!("site-fanout(seed={})", self.seed)
    }

    /// The evaluation machine, collecting every 4 MiB allocated so that the churn
    /// of one short execution already triggers collections that move survivors.
    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig::evaluation().with_gc(GcConfig::every_allocated_bytes(4 << 20))
    }

    fn run(&self, rt: &mut Runtime) -> djx_runtime::Result<()> {
        let mut rng = Rng(self.seed ^ 0x5173_FA40_0D1E_5EED);
        let classes: Vec<(ClassId, u64)> = CLASSES
            .iter()
            .map(|&(name, size)| (rt.register_array_class(name, size), size))
            .collect();
        let methods: Vec<MethodId> = (0..METHODS)
            .map(|m| {
                let class = format!("app.svc{}.Component{m}", m % 6);
                let file = format!("Component{m}.java");
                rt.register_method(
                    &class,
                    &format!("step{m}"),
                    &file,
                    &[(0, 20 + m), (4, 40 + m), (8, 60 + m)],
                )
            })
            .collect();
        let sites: Vec<Site> = (0..self.sites)
            .map(|_| {
                let (class, elem_size) = classes[rng.below(classes.len() as u64) as usize];
                let depth = 2 + rng.below(7) as usize;
                let path = (0..depth)
                    .map(|_| (methods[rng.below(METHODS as u64) as usize], 4 * rng.below(3) as u32))
                    .collect();
                let kernel = methods[rng.below(METHODS as u64) as usize];
                Site { class, elem_size, path, kernel }
            })
            .collect();
        // One array in eight is too small for the size filter: its samples stay
        // unattributed, as accesses to unmonitored small objects do.
        let array_bytes = |rng: &mut Rng| match rng.below(8) {
            0 => 256 + rng.below(640),
            _ => (2048u64 << rng.below(3)) + rng.below(2048),
        };

        let run_method = dsl::thread_run_method(rt);
        let threads: Vec<ThreadId> = (0..self.threads)
            .map(|t| {
                let thread = rt.spawn_thread(&format!("fanout-{t}"));
                rt.push_frame(thread, run_method, 0).map(|()| thread)
            })
            .collect::<djx_runtime::Result<_>>()?;

        // The pool: sites are themselves drawn skewed, so a few sites own many arrays.
        let mut pool = Vec::with_capacity(self.pool);
        for i in 0..self.pool {
            let site = rng.skewed(sites.len());
            let bytes = array_bytes(&mut rng);
            let array = alloc_at(rt, threads[i % threads.len()], &sites[site], bytes)?;
            pool.push(Slot { array, site });
        }
        // Hotness order: rank r of thread t probes pool[order[(r + 17t) % pool]], so
        // threads share most of their hot set.
        let mut order: Vec<usize> = (0..pool.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }

        for step in 0..self.steps {
            for (t, &thread) in threads.iter().enumerate() {
                let slot = order[(rng.skewed(pool.len()) + 17 * t) % pool.len()];
                let Slot { array, site } = &pool[slot];
                let len = array.len();
                // A stride of one to four cache lines: every load touches a new line.
                let stride = ((64 / sites[*site].elem_size) * (1 + rng.below(4))).max(1);
                let start = rng.below(len);
                dsl::with_frame(rt, thread, sites[*site].kernel, 4, |rt| {
                    for k in 0..self.loads_per_step {
                        let idx = (start + k * stride) % len;
                        if k % 4 == 3 {
                            rt.store_elem(thread, array, idx)?;
                        } else {
                            rt.load_elem(thread, array, idx)?;
                        }
                    }
                    Ok(())
                })?;
                if (step + t as u64 * 16).is_multiple_of(self.churn_every) {
                    let victim = rng.below(pool.len() as u64) as usize;
                    rt.release(&pool[victim].array)?;
                    let bytes = array_bytes(&mut rng);
                    pool[victim].array = alloc_at(rt, thread, &sites[pool[victim].site], bytes)?;
                }
            }
        }

        for slot in &pool {
            rt.release(&slot.array)?;
        }
        for thread in threads {
            rt.pop_frame(thread)?;
            rt.finish_thread(thread)?;
        }
        Ok(())
    }
}
