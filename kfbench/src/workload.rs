//! The three seeded traffic mixes and the node they run against.
//!
//! Everything a run sends is generated here from `(workload, seed, seconds)`
//! before the node boots; the node receives only these requests. The
//! [`Plan::digest`] of a plan identifies its request set.

use keyformer_text::datasets::dialogue::{DialogueDataset, DialogueSpec};
use keyformer_text::datasets::longdoc::{LongDocDataset, LongDocSpec};
use keyformer_text::datasets::summarization::{SummarizationDataset, SummarizationSpec};
use keyformer_text::datasets::{instruction_suffix_len, Sample};
use keyformer_text::vocab::{SEP, TLDR};
use keyformer_text::Vocabulary;

/// Weight seed of the served model.
pub const MODEL_SEED: u64 = 7;
/// Per-session KV budget as a share of the prompt (the paper's 50%).
pub const BUDGET_FRACTION: f64 = 0.5;
/// KV pool size of the node, in token slots.
pub const POOL_TOKENS: usize = 4096;
/// Prompt tokens forwarded per prefill chunk.
pub const PREFILL_CHUNK: usize = 32;

/// `kf_serve` flags of the benchmarked node (after `--addr`). Every workload
/// runs against exactly this node.
pub fn node_flags() -> Vec<String> {
    let flags = format!(
        "--family gptj --model-seed {MODEL_SEED} --policy keyformer --budget {BUDGET_FRACTION} \
         --pool-tokens {POOL_TOKENS} --prefill-chunk {PREFILL_CHUNK} --decode-workers 1 \
         --kv-dtype f32 --prefix-sharing"
    );
    flags.split_whitespace().map(str::to_string).collect()
}

/// A probe meets the service-level objective when its time to first token
/// and the 90th percentile of its own token gaps are both within these.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    /// Limit on time to first token, ms.
    pub ttft_ms: f64,
    /// Limit on the probe's own p90 inter-token gap, ms.
    pub itl_p90_ms: f64,
}

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Decode-bound chat: short dialogue prompts, long greedy replies,
    /// open-loop Poisson arrivals.
    ChatStream,
    /// Prefill-bound offline batch: bursts of 340-token articles, outputs of
    /// reference length.
    SummarizeBatch,
    /// Shared-prefix document QA: two ~1k-token reports asked about again and
    /// again, a fixed share of the requests byte-identical repeats.
    DocQaShared,
}

/// Articles in one `summarize_batch` burst.
pub const BURST: usize = 16;
/// Reports `doc_qa_shared` draws from.
pub const DOCS: usize = 2;
/// Every `REPEAT_EVERY`-th `doc_qa_shared` request (a fixed 25% share)
/// repeats an earlier request of its stream byte for byte.
pub const REPEAT_EVERY: usize = 4;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ChatStream,
        Workload::SummarizeBatch,
        Workload::DocQaShared,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChatStream => "chat_stream",
            Workload::SummarizeBatch => "summarize_batch",
            Workload::DocQaShared => "doc_qa_shared",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fixed open-loop arrival rate in requests per second (`None` for the
    /// offline bursts), chosen from the knee sweep in `sweep.txt`.
    pub fn rate(self) -> Option<f64> {
        match self {
            Workload::ChatStream => Some(3.0),
            Workload::SummarizeBatch => None,
            Workload::DocQaShared => Some(6.0),
        }
    }

    /// The workload's latency limits, chosen from the knee sweep.
    pub fn slo(self) -> Slo {
        match self {
            Workload::ChatStream => Slo {
                ttft_ms: 60.0,
                itl_p90_ms: 8.0,
            },
            Workload::SummarizeBatch => Slo {
                ttft_ms: 1000.0,
                itl_p90_ms: 30.0,
            },
            Workload::DocQaShared => Slo {
                ttft_ms: 150.0,
                itl_p90_ms: 10.0,
            },
        }
    }
}

/// One generate call.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Greedy tokens to generate.
    pub max_new: usize,
    /// Dataset reference the output is ROUGE-scored against (its first
    /// `reference.len()` tokens).
    pub reference: Vec<u32>,
    /// Scheduling priority (0 is the node's default).
    pub priority: u8,
}

/// Everything one run may send, generated from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The traffic mix.
    pub workload: Workload,
    /// Background requests, sent on the pipelined NDJSON session.
    pub requests: Vec<Request>,
    /// Open loop: due send time of each background request, seconds from the
    /// start. Empty for bursts.
    pub due_s: Vec<f64>,
    /// Streamed probes, sent one at a time on the second connection.
    pub probes: Vec<Request>,
    /// Requests run to completion before the window opens (one question per
    /// document, so the window starts with the documents registered).
    pub warmup: Vec<Request>,
}

/// SplitMix64: a small, seedable generator, so the request set depends only
/// on the seed and this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

impl Plan {
    /// Generates the plan of `workload` for a run of `seconds` seconds.
    /// `rate` overrides the workload's fixed arrival rate (knee sweep).
    pub fn generate(workload: Workload, seed: u64, seconds: f64, rate: Option<f64>) -> Plan {
        let mut rng = Rng::new(seed, 1);
        let rate = rate.or(workload.rate());
        match workload {
            Workload::ChatStream => {
                let n = open_loop_count(rate, seconds);
                let mut probe_rng = Rng::new(seed, 2);
                Plan {
                    workload,
                    requests: (0..n).map(|_| chat_request(&mut rng)).collect(),
                    due_s: poisson_arrivals(&mut Rng::new(seed, 3), n, seconds),
                    probes: (0..probe_cap(seconds))
                        .map(|_| chat_request(&mut probe_rng))
                        .collect(),
                    warmup: Vec::new(),
                }
            }
            Workload::SummarizeBatch => {
                // Enough bursts for a node several times faster than today's.
                let background = ((seconds * 8.0).ceil() as usize + 2) * BURST;
                let spec = SummarizationSpec {
                    seed: SummarizationSpec::paper_default()
                        .seed
                        .wrapping_add(seed.wrapping_mul(1_000_003)),
                    ..SummarizationSpec::paper_default()
                };
                let articles =
                    SummarizationDataset::generate(&spec, background + probe_cap(seconds));
                let mut requests: Vec<Request> = articles
                    .samples()
                    .iter()
                    .map(|sample| Request {
                        prompt: sample.prompt.clone(),
                        max_new: sample.target_generation_len(),
                        reference: sample.reference.clone(),
                        priority: 0,
                    })
                    .collect();
                // The probes are interactive summaries of the same kind of
                // article at the top priority, so they overtake the queued
                // batch (whose priority ages upward while it waits).
                let mut probes = requests.split_off(background);
                for probe in &mut probes {
                    probe.priority = 255;
                }
                Plan {
                    workload,
                    requests,
                    due_s: Vec::new(),
                    probes,
                    warmup: Vec::new(),
                }
            }
            Workload::DocQaShared => {
                // The corpus is fixed (the dataset's own seed); the workload
                // seed draws the questions, the repeats and the arrivals.
                let spec = LongDocSpec::paper_default();
                let docs = LongDocDataset::generate(&spec, DOCS);
                let tail = instruction_suffix_len(spec.total_facts());
                let samples = docs.samples();
                // Each stream asks every (report, cue) pair once per round,
                // in seeded order, so its mix of questions is the same for
                // every seed.
                let pairs: Vec<(usize, usize)> = (0..DOCS)
                    .flat_map(|d| (0..samples[d].num_facts - 2).map(move |k| (d, k)))
                    .collect();
                let asker = || {
                    let pairs = pairs.clone();
                    let mut round: Vec<(usize, usize)> = Vec::new();
                    move |rng: &mut Rng| {
                        if round.is_empty() {
                            round = pairs.clone();
                            shuffle(&mut round, rng);
                        }
                        let (d, k) = round.pop().expect("a round is never empty");
                        doc_question(&samples[d], tail, k, rng)
                    }
                };
                let warmup = samples
                    .iter()
                    .map(|sample| doc_question(sample, tail, 0, &mut rng))
                    .collect();
                let n = open_loop_count(rate, seconds);
                let requests = with_repeats(n, &mut rng, &mut asker());
                let probes = with_repeats(probe_cap(seconds), &mut Rng::new(seed, 2), &mut asker());
                Plan {
                    workload,
                    requests,
                    due_s: poisson_arrivals(&mut Rng::new(seed, 3), n, seconds),
                    probes,
                    warmup,
                }
            }
        }
    }

    /// `true` when requests share long prompt prefixes (the documents).
    pub fn shares_prefixes(&self) -> bool {
        self.workload == Workload::DocQaShared
    }

    /// FNV-1a digest of the whole request set: prompts, lengths, due times
    /// (µs) and probes. Equal seeds give equal digests.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01B3);
            }
        };
        eat(self.workload as u64);
        for request in self.warmup.iter().chain(&self.requests).chain(&self.probes) {
            eat(request.prompt.len() as u64);
            request.prompt.iter().for_each(|&t| eat(u64::from(t)));
            eat(request.max_new as u64);
            eat(u64::from(request.priority));
        }
        self.due_s.iter().for_each(|d| eat((d * 1e6) as u64));
        h
    }
}

/// Open-loop arrivals in the window: exactly `round(rate * seconds)`.
fn open_loop_count(rate: Option<f64>, seconds: f64) -> usize {
    (rate.expect("open-loop workloads have a rate") * seconds)
        .round()
        .max(1.0) as usize
}

/// Probes generated per run: more than a run can send.
fn probe_cap(seconds: f64) -> usize {
    (seconds * 100.0).ceil() as usize + 16
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i));
    }
}

/// `n` Poisson arrivals conditioned on all landing in `[0, seconds)`: the
/// exponential gaps are rescaled so that an (n+1)-th arrival would fall at
/// the window's end, which fixes the count (and so the offered load) while
/// keeping Poisson spacing.
fn poisson_arrivals(rng: &mut Rng, n: usize, seconds: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut times: Vec<f64> = (0..=n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln();
            t
        })
        .collect();
    let end = times.pop().expect("n + 1 gaps");
    times.iter().map(|x| x / end * seconds).collect()
}

/// A short dialogue (32–64 prompt tokens) whose speaker asks for a recap of
/// three planted facts, answered with 128–192 greedy tokens.
fn chat_request(rng: &mut Rng) -> Request {
    let spec = DialogueSpec {
        num_turns: 3,
        turn_len: rng.range(7, 17),
        num_facts: 3,
        filler_pool: 150,
        seed: rng.next_u64(),
    };
    let dialogue = DialogueDataset::generate(&spec, 1);
    let sample = &dialogue.samples()[0];
    Request {
        prompt: sample.prompt.clone(),
        max_new: rng.range(128, 192),
        reference: sample.reference.clone(),
        priority: 0,
    }
}

/// `n` requests from `fresh`, where every `REPEAT_EVERY`-th one repeats an
/// earlier one of the same stream byte for byte.
fn with_repeats(
    n: usize,
    rng: &mut Rng,
    fresh: &mut impl FnMut(&mut Rng) -> Request,
) -> Vec<Request> {
    let mut out: Vec<Request> = Vec::with_capacity(n);
    for i in 0..n {
        let request = if i % REPEAT_EVERY == REPEAT_EVERY - 1 {
            out[rng.range(0, i - 1)].clone()
        } else {
            fresh(rng)
        };
        out.push(request);
    }
    out
}

/// Greedy tokens generated per `doc_qa_shared` request.
pub const ANSWER_TOKENS: usize = 16;

/// A question about one report: the report body (the shared prefix), then a
/// seeded suffix `TLDR f f cue_k SEP cue_k` asking for the chain from cue `k`
/// (`k + 2 < num_facts`; two filler tokens make fresh questions distinct).
/// The reference is the next five chain tokens
/// `fact_k cue_k+1 fact_k+1 cue_k+2 fact_k+2`.
fn doc_question(sample: &Sample, tail: usize, k: usize, rng: &mut Rng) -> Request {
    let vocab = Vocabulary::new();
    // cue_0 ends the prompt; cue_j (j > 0) sits at reference[2j - 1].
    let cue = if k == 0 {
        *sample.prompt.last().expect("prompts are non-empty")
    } else {
        sample.reference[2 * k - 1]
    };
    let mut prompt = sample.prompt[..sample.prompt.len() - tail].to_vec();
    prompt.push(TLDR);
    for _ in 0..2 {
        prompt.push(vocab.filler(rng.range(0, 249) as u32));
    }
    prompt.extend_from_slice(&[cue, SEP, cue]);
    Request {
        prompt,
        max_new: ANSWER_TOKENS,
        reference: sample.reference[2 * k..2 * k + 5].to_vec(),
        priority: 0,
    }
}
