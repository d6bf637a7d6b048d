//! Seeded workload generation: every workload is a list of `.scn` texts
//! made from the `--seed` argument alone. The program under test only
//! ever sees the generated text.

/// SplitMix64: a tiny, stable generator for the benchmark's own choices
/// (sweep seeds, replay order). Independent of the repository's RNGs so
/// a change there cannot change the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for an independent stream `tag` of the same seed.
    pub fn stream(seed: u64, tag: u64) -> Rng {
        let mut rng = Rng(seed ^ tag.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn seeds(&mut self, count: usize) -> String {
        (0..count)
            .map(|_| self.next_u64().to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// One generated `.scn` text and the scenario name its rows carry.
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub text: String,
}

fn input(name: &str, text: String) -> Input {
    Input {
        name: name.to_string(),
        text,
    }
}

/// `paper_tables`: the T22-CONV, DYN-CHURN and voter-consensus sweeps on
/// small graphs, shaped like the shipped `examples/scenarios` files. They
/// run `threads 1`, not the shipped `threads 0`: on tiny graphs
/// `threads 0` spawns threads every block round, so its pass time follows
/// the host's scheduling load (from 2 s to 11 s per pass on a shared
/// 2-vCPU VM) rather than the engine. The seed picks every master and
/// churn seed.
pub fn paper_tables(seed: u64) -> Vec<Input> {
    let mut rng = Rng::stream(seed, 1);
    let t22 = format!(
        "scenario t22-conv\n\
         model node alpha=0.5 k=1 lazy=false\n\
         graph cycle n=16\n\
         init pm_one\n\
         replicas 20\n\
         seed 0\n\
         stop converge eps=0.000000001 rule=exact potential=pi budget=32768000\n\
         threads 1\n\
         sweep graph = cycle:n=16,complete:n=16,cycle:n=32,complete:n=32,cycle:n=64,\
         complete:n=64,cycle:n=128,complete:n=128,torus:rows=4:cols=4,torus:rows=6:cols=6,\
         hypercube:dim=4,hypercube:dim=5\n\
         sweep seed = {}\n",
        rng.seeds(12)
    );
    let churn = format!(
        "scenario dyn-churn\n\
         model node alpha=0.5 k=2 lazy=false\n\
         graph torus rows=16 cols=16\n\
         init pm_one\n\
         churn edge_swap swaps=0 epoch=256 seed=0\n\
         replicas 64\n\
         seed 0\n\
         stop converge eps=0.000000000001 rule=block potential=pi budget=768000\n\
         threads 1\n\
         sweep churn = 0,1,4,16\n\
         sweep seed = {}\n\
         sweep churn_seed = {}\n",
        rng.seeds(4),
        rng.seeds(4)
    );
    let voter = format!(
        "scenario voter-consensus\n\
         model voter\n\
         graph torus rows=8 cols=8\n\
         init opinions levels=5\n\
         replicas 32\n\
         seed {}\n\
         stop consensus budget=2000000\n\
         threads 1\n\
         sweep graph = torus:rows=8:cols=8,torus:rows=6:cols=6,complete:n=48\n",
        rng.next_u64()
    );
    vec![
        input("t22-conv", t22),
        input("dyn-churn", churn),
        input("voter-consensus", voter),
    ]
}

/// `big_graph`: two ~10^6-node graphs, each with a 4-cell `k` axis, a
/// few replicas and a short fixed horizon, so graph build, per-cell
/// copies and assembly dominate stepping.
pub fn big_graph(seed: u64) -> Vec<Input> {
    let mut rng = Rng::stream(seed, 2);
    let sweep = |name: &str, graph: &str, rng: &mut Rng| {
        input(
            name,
            format!(
                "scenario {name}\n\
                 model node alpha=0.5 k=1 lazy=false\n\
                 graph {graph}\n\
                 init linear lo=0 hi=1\n\
                 replicas 4\n\
                 seed {}\n\
                 stop steps count=65536\n\
                 threads 0\n\
                 sweep k = 1,2,3,4\n",
                rng.next_u64()
            ),
        )
    };
    vec![
        sweep("big-hypercube", "hypercube dim=20", &mut rng),
        sweep("big-torus", "torus rows=1024 cols=1024", &mut rng),
    ]
}

/// The `serve_mix` sweep families: small sweeps (a few ms of engine
/// work each) covering the four engines the daemon schedules most.
const FAMILIES: usize = 4;

fn serve_sweep(family: usize, name: &str, rng: &mut Rng) -> Input {
    let seed = rng.next_u64();
    let text = match family {
        0 => format!(
            "scenario {name}\n\
             model node alpha=0.5 k=1 lazy=false\n\
             graph cycle n=16\n\
             init pm_one\n\
             replicas 4\n\
             seed {seed}\n\
             stop converge eps=0.000001 rule=exact potential=pi budget=1000000\n\
             sweep k = 1,2\n"
        ),
        1 => format!(
            "scenario {name}\n\
             model voter\n\
             graph torus rows=4 cols=4\n\
             init opinions levels=3\n\
             replicas 8\n\
             seed {seed}\n\
             stop consensus budget=1000000\n\
             sweep graph = torus:rows=4:cols=4,cycle:n=12\n"
        ),
        2 => format!(
            "scenario {name}\n\
             model node alpha=0.5 k=1 lazy=false\n\
             graph torus rows=8 cols=8\n\
             init linear lo=0 hi=1\n\
             replicas 4\n\
             seed {seed}\n\
             stop steps count=4096\n\
             sweep k = 1,2\n"
        ),
        _ => format!(
            "scenario {name}\n\
             model node alpha=0.5 k=2 lazy=false\n\
             graph torus rows=6 cols=6\n\
             init pm_one\n\
             churn edge_swap swaps=0 epoch=64 seed={}\n\
             replicas 4\n\
             seed {seed}\n\
             stop converge eps=0.000001 rule=block potential=pi budget=1000000\n\
             sweep churn = 0,2\n",
            rng.next_u64()
        ),
    };
    input(name, text)
}

/// The sweeps submitted while the daemon warms up: two per family. The
/// measured traffic replays them (cache reads).
pub fn serve_pool(seed: u64) -> Vec<Input> {
    let mut rng = Rng::stream(seed, 3);
    (0..2 * FAMILIES)
        .map(|i| serve_sweep(i % FAMILIES, &format!("pool-{i}"), &mut rng))
        .collect()
}

/// A fresh-seed sweep for client `client`'s `index`-th fresh submission
/// (a cache insert plus pool work).
pub fn serve_fresh(rng: &mut Rng, client: usize, index: usize) -> Input {
    let family = rng.below(FAMILIES);
    serve_sweep(family, &format!("fresh-{client}-{index}"), rng)
}
