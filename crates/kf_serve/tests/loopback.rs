//! Loopback integration tests: a real `kf_serve` node on an ephemeral port,
//! talked to over real sockets by the reference client.
//!
//! The three acceptance properties of the network front-end:
//!
//! 1. **Wire/engine identity** — a streamed generate returns exactly the
//!    tokens a directly-driven [`Engine`] produces for the same request.
//! 2. **Idempotence** — a repeated deterministic request is answered from the
//!    result cache byte-identically, with *zero* additional engine steps; a
//!    concurrent duplicate coalesces onto the in-flight primary and receives
//!    the identical tokens. Sampled requests bypass both mechanisms.
//! 3. **Cancellation hygiene** — a wire cancellation retires the job and
//!    drains the engine pool back to zero blocks in use or reserved.

use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::spec::PolicySpec;
use keyformer_model::families::ModelFamily;
use keyformer_model::generation::GenerationConfig;
use keyformer_serve::{Engine, Request, ServerConfig, SubmitOptions};
use kf_serve::client::{str_field, tokens_field, u64_field};
use kf_serve::{serve, NodeConfig, ServeHandle};
use serde::Value;
use std::time::{Duration, Instant};

const MODEL_SEED: u64 = 31;

fn prompt(len: usize, salt: u32) -> Vec<u32> {
    (0..len)
        .map(|t| (t as u32 * 13 + 7 + salt * 31) % 120)
        .collect()
}

fn pool_config(slots: usize) -> ServerConfig {
    let model = ModelFamily::Tiny.build(MODEL_SEED);
    let bytes_per_token = model.empty_cache().bytes_per_token();
    ServerConfig::new(
        PolicySpec::keyformer_default(),
        Some(CacheBudgetSpec::with_fraction(0.5).unwrap()),
        slots * bytes_per_token,
    )
    .with_block_size(4)
}

fn boot(engine: ServerConfig, dedup: bool) -> ServeHandle {
    serve(
        "127.0.0.1:0",
        NodeConfig::new(ModelFamily::Tiny, MODEL_SEED, engine).with_dedup(dedup),
    )
    .expect("node boots")
}

/// Runs the same request on a directly-driven engine, mirroring the server's
/// default resolution (explicit policy/budget/dtype), and returns its tokens.
fn direct_engine_tokens(engine_config: ServerConfig, prompt: &[u32], gen: usize) -> Vec<u32> {
    let model = ModelFamily::Tiny.build(MODEL_SEED);
    let mut engine = Engine::new(&model, engine_config).unwrap();
    let mut request = Request::new(1, prompt.to_vec(), GenerationConfig::new(gen))
        .with_policy(engine_config.policy);
    request = match engine_config.budget {
        Some(budget) => request.with_budget(budget),
        None => request.with_unbudgeted(),
    };
    let options = SubmitOptions::new().with_kv_dtype(engine_config.kv_dtype);
    engine.submit_with(request, options).unwrap();
    engine.run(100_000);
    assert!(engine.is_idle(), "direct engine drained");
    assert_eq!(engine.completions().len(), 1);
    engine.completions()[0].output.generated.clone()
}

fn generate_body(prompt: &[u32], gen: usize, extra: &str) -> String {
    let tokens: Vec<String> = prompt.iter().map(u32::to_string).collect();
    format!(
        "{{\"prompt\":[{}],\"max_new_tokens\":{gen}{extra}}}",
        tokens.join(",")
    )
}

/// Polls `GET /v1/jobs/{id}` until the job reaches a terminal state.
fn await_terminal(handle: &ServeHandle, job: u64) -> Value {
    let client = handle.client();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = client.job(job).expect("job poll");
        assert_eq!(status, 200, "job {job} should exist");
        match str_field(&body, "state") {
            Some("done") | Some("failed") | Some("cancelled") => return body,
            _ => {
                assert!(Instant::now() < deadline, "job {job} never became terminal");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn engine_field(stats: &Value, field: &str) -> u64 {
    u64_field(stats.field("engine").unwrap(), field)
        .unwrap_or_else(|| panic!("engine.{field} missing from stats"))
}

fn pool_field(stats: &Value, field: &str) -> u64 {
    u64_field(stats.field("engine").unwrap().field("pool").unwrap(), field)
        .unwrap_or_else(|| panic!("engine.pool.{field} missing from stats"))
}

#[test]
fn streamed_generate_matches_direct_engine() {
    let engine_config = pool_config(160);
    let handle = boot(engine_config, true);
    let client = handle.client();
    let p = prompt(24, 1);

    let outcome = client
        .generate_stream(&generate_body(&p, 6, ",\"stream\":true"))
        .expect("streamed generate");
    assert_eq!(outcome.terminal, "done", "stream ends with a done event");
    assert!(outcome.job_id.is_some(), "preamble announces the job id");
    assert!(!outcome.deduplicated, "first run is fresh");
    assert!(outcome.ttft.is_some(), "a token event was timed");

    let direct = direct_engine_tokens(engine_config, &p, 6);
    assert_eq!(
        outcome.tokens, direct,
        "streamed tokens must be identical to a directly-driven engine"
    );

    // The polled record agrees with the stream.
    let record = await_terminal(&handle, outcome.job_id.unwrap());
    assert_eq!(tokens_field(&record, "tokens").unwrap(), direct);
    handle.shutdown();
}

#[test]
fn repeat_request_is_served_from_cache_with_zero_engine_steps() {
    let engine_config = pool_config(160);
    let handle = boot(engine_config, true);
    let client = handle.client();
    let p = prompt(22, 2);
    let body = generate_body(&p, 5, "");

    let (status, first) = client.generate(&body).expect("first generate");
    assert_eq!(status, 202, "a fresh request is accepted, not answered");
    let first_job = u64_field(&first, "job_id").unwrap();
    let first_record = await_terminal(&handle, first_job);
    let first_tokens = tokens_field(&first_record, "tokens").unwrap();
    assert_eq!(first_tokens, direct_engine_tokens(engine_config, &p, 5));

    // The engine is now idle; its step counter must not advance for a repeat.
    let (_, stats_before) = client.stats().expect("stats");
    let steps_before = engine_field(&stats_before, "steps");

    let (status, repeat) = client.generate(&body).expect("repeat generate");
    assert_eq!(status, 200, "a cached repeat is answered immediately");
    assert_eq!(str_field(&repeat, "state"), Some("done"));
    assert_eq!(repeat.field("deduplicated").unwrap(), &Value::Bool(true));
    let repeat_tokens = tokens_field(&repeat, "tokens").unwrap();
    assert_eq!(
        repeat_tokens, first_tokens,
        "cached bytes must be identical to the original result"
    );

    let (_, stats_after) = client.stats().expect("stats");
    assert_eq!(
        engine_field(&stats_after, "steps"),
        steps_before,
        "a cache hit must cost zero engine steps"
    );
    assert_eq!(
        u64_field(stats_after.field("jobs").unwrap(), "cache_hits"),
        Some(1)
    );

    // The repeat's own record is pollable and byte-identical too.
    let repeat_record = await_terminal(&handle, u64_field(&repeat, "job_id").unwrap());
    assert_eq!(
        tokens_field(&repeat_record, "tokens").unwrap(),
        first_tokens
    );
    handle.shutdown();
}

#[test]
fn concurrent_duplicate_coalesces_onto_the_primary() {
    let engine_config = pool_config(1200);
    let handle = boot(engine_config, true);
    let client = handle.client();
    let p = prompt(20, 3);
    // A long decode keeps the primary in flight while the duplicate arrives.
    let body = generate_body(&p, 400, "");

    let (status, first) = client.generate(&body).expect("first generate");
    assert_eq!(status, 202);
    let first_job = u64_field(&first, "job_id").unwrap();

    let (status, twin) = client.generate(&body).expect("duplicate generate");
    assert_eq!(status, 202);
    let twin_job = u64_field(&twin, "job_id").unwrap();
    assert_eq!(
        u64_field(&twin, "coalesced_into"),
        Some(first_job),
        "the duplicate must ride on the in-flight primary"
    );

    let first_record = await_terminal(&handle, first_job);
    let twin_record = await_terminal(&handle, twin_job);
    assert_eq!(str_field(&first_record, "state"), Some("done"));
    assert_eq!(str_field(&twin_record, "state"), Some("done"));
    assert_eq!(
        u64_field(&twin_record, "coalesced_into"),
        None,
        "a completed follower owns its tokens and detaches from the primary"
    );
    let first_tokens = tokens_field(&first_record, "tokens").unwrap();
    assert_eq!(
        tokens_field(&twin_record, "tokens").unwrap(),
        first_tokens,
        "coalesced results must be byte-identical"
    );
    assert_eq!(first_tokens.len(), 400, "the primary ran to its budget");

    let (_, stats) = client.stats().expect("stats");
    let jobs = stats.field("jobs").unwrap();
    assert_eq!(u64_field(jobs, "coalesced"), Some(1));
    assert_eq!(
        u64_field(jobs, "completed"),
        Some(1),
        "only the primary consumed the engine"
    );
    handle.shutdown();
}

#[test]
fn sampled_requests_bypass_cache_and_coalescing() {
    let engine_config = pool_config(160);
    let handle = boot(engine_config, true);
    let client = handle.client();
    let p = prompt(20, 4);
    let body = generate_body(&p, 4, ",\"top_k\":8,\"temperature\":1.5,\"seed\":9");

    let (_, first) = client.generate(&body).expect("first sampled generate");
    await_terminal(&handle, u64_field(&first, "job_id").unwrap());
    let (status, repeat) = client.generate(&body).expect("repeat sampled generate");
    assert_eq!(
        status, 202,
        "sampled repeats are fresh runs, never cache hits"
    );
    assert_eq!(u64_field(&repeat, "coalesced_into"), None);
    await_terminal(&handle, u64_field(&repeat, "job_id").unwrap());

    let (_, stats) = client.stats().expect("stats");
    let jobs = stats.field("jobs").unwrap();
    assert_eq!(u64_field(jobs, "cache_hits"), Some(0));
    assert_eq!(u64_field(jobs, "coalesced"), Some(0));
    assert_eq!(u64_field(jobs, "completed"), Some(2));
    handle.shutdown();
}

#[test]
fn wire_cancellation_drains_the_pool() {
    let engine_config = pool_config(4000);
    let handle = boot(engine_config, true);
    let client = handle.client();
    // A decode far too long to finish before the cancel lands.
    let body = generate_body(&prompt(20, 5), 100_000, "");

    let (status, accepted) = client.generate(&body).expect("generate");
    assert_eq!(status, 202);
    let job = u64_field(&accepted, "job_id").unwrap();

    let (status, cancel) = client.cancel(job).expect("cancel");
    assert_eq!(status, 202);
    assert_eq!(cancel.field("cancelling").unwrap(), &Value::Bool(true));

    let record = await_terminal(&handle, job);
    assert_eq!(str_field(&record, "state"), Some("cancelled"));

    // Once the engine settles, every block is back in the pool.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, stats) = client.stats().expect("stats");
        let drained = engine_field(&stats, "queued") == 0
            && engine_field(&stats, "running") == 0
            && pool_field(&stats, "in_use") == 0
            && pool_field(&stats, "reserved") == 0;
        if drained {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pool never drained after cancellation: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
}

#[test]
fn dedup_off_runs_every_request() {
    let engine_config = pool_config(160);
    let handle = boot(engine_config, false);
    let client = handle.client();
    let body = generate_body(&prompt(20, 6), 4, "");

    let (_, first) = client.generate(&body).expect("first generate");
    await_terminal(&handle, u64_field(&first, "job_id").unwrap());
    let (status, repeat) = client.generate(&body).expect("repeat generate");
    assert_eq!(status, 202, "with dedup off a repeat is a fresh run");
    await_terminal(&handle, u64_field(&repeat, "job_id").unwrap());

    let (_, stats) = client.stats().expect("stats");
    let jobs = stats.field("jobs").unwrap();
    assert_eq!(u64_field(jobs, "cache_hits"), Some(0));
    assert_eq!(u64_field(jobs, "completed"), Some(2));
    handle.shutdown();
}

#[test]
fn repeated_cache_hits_keep_the_job_table_bounded() {
    let engine_config = pool_config(160);
    let handle = serve(
        "127.0.0.1:0",
        NodeConfig::new(ModelFamily::Tiny, MODEL_SEED, engine_config)
            .with_dedup(true)
            .with_retained_jobs(2),
    )
    .expect("node boots");
    let client = handle.client();
    let p = prompt(20, 8);
    let body = generate_body(&p, 4, "");

    let (_, first) = client.generate(&body).expect("first generate");
    let first_job = u64_field(&first, "job_id").unwrap();
    await_terminal(&handle, first_job);

    // Every repeat is a cache hit whose job is born terminal; those records
    // must rotate through the retention ring like any other finished job.
    let mut hit_jobs = Vec::new();
    for _ in 0..4 {
        let (status, repeat) = client.generate(&body).expect("cached repeat");
        assert_eq!(status, 200);
        hit_jobs.push(u64_field(&repeat, "job_id").unwrap());
    }
    let jobs = &handle.node().pump.jobs;
    assert_eq!(
        jobs.live(),
        0,
        "terminal-born records must never count as live"
    );
    // With a cap of 2, only the two newest terminal records survive.
    assert!(jobs.with_job(first_job, |_| ()).is_none());
    assert!(jobs.with_job(hit_jobs[0], |_| ()).is_none());
    assert!(jobs.with_job(hit_jobs[1], |_| ()).is_none());
    assert!(jobs.with_job(hit_jobs[2], |_| ()).is_some());
    assert!(jobs.with_job(hit_jobs[3], |_| ()).is_some());
    let (status, _) = client.job(first_job).expect("poll GC'd job");
    assert_eq!(status, 404, "a GC'd record answers 404 over the wire");
    handle.shutdown();
}

#[test]
fn connections_past_the_cap_answer_503() {
    use std::io::{BufRead, BufReader, Write};

    let handle = serve(
        "127.0.0.1:0",
        NodeConfig::new(ModelFamily::Tiny, MODEL_SEED, pool_config(160)).with_max_connections(1),
    )
    .expect("node boots");
    let client = handle.client();

    // Hold the single slot with a persistent NDJSON session.
    let mut held = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    held.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    writeln!(held, "{{\"op\":\"stats\"}}").expect("write op");
    held.flush().unwrap();
    let mut held_reader = BufReader::new(held.try_clone().unwrap());
    let mut line = String::new();
    held_reader.read_line(&mut line).expect("stats reply");
    assert!(line.contains("jobs"), "the held session is being served");

    // Any further connection is shed with a fast 503.
    let (status, body) = client.stats().expect("overloaded stats");
    assert_eq!(status, 503);
    assert_eq!(str_field(&body, "error"), Some("overloaded"));

    // Releasing the held session frees the slot again.
    drop(held_reader);
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((200, _)) = client.stats() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the slot never came back after the session closed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
}

#[test]
fn idle_ndjson_sessions_are_closed_by_the_server() {
    use std::io::{BufRead, BufReader, Write};

    let handle = serve(
        "127.0.0.1:0",
        NodeConfig::new(ModelFamily::Tiny, MODEL_SEED, pool_config(160))
            .with_ndjson_idle_timeout(100),
    )
    .expect("node boots");

    let mut session = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    session
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    writeln!(session, "{{\"op\":\"stats\"}}").expect("write op");
    session.flush().unwrap();
    let mut reader = BufReader::new(session);
    let mut line = String::new();
    reader.read_line(&mut line).expect("stats reply");
    assert!(line.contains("jobs"));

    // Then go silent: the server must end the session, not pin its thread.
    let waited = Instant::now();
    line.clear();
    let n = reader.read_line(&mut line).expect("server-side close");
    assert_eq!(n, 0, "the idle session ends with a clean EOF");
    assert!(
        waited.elapsed() < Duration::from_secs(20),
        "the idle close must come from the 100ms server timeout"
    );
    handle.shutdown();
}

#[test]
fn malformed_and_unknown_requests_answer_structured_errors() {
    let handle = boot(pool_config(160), true);
    let client = handle.client();

    let (status, body) = client.generate("{\"prompt\":[]}").expect("empty prompt");
    assert_eq!(status, 400);
    assert_eq!(str_field(&body, "error"), Some("invalid_request"));

    let (status, body) = client.generate("not json at all").expect("non-JSON body");
    assert_eq!(status, 400);
    assert_eq!(str_field(&body, "error"), Some("invalid_json"));

    let (status, body) = client
        .generate("{\"prompt\":[1,2],\"policy\":\"quantum\"}")
        .expect("unknown policy");
    assert_eq!(status, 400);
    assert_eq!(str_field(&body, "error"), Some("invalid_request"));

    let (status, body) = client.job(999).expect("unknown job");
    assert_eq!(status, 404);
    assert_eq!(str_field(&body, "error"), Some("not_found"));

    let (status, _) = client.cancel(999).expect("unknown cancel");
    assert_eq!(status, 404);
    handle.shutdown();
}

/// An over-long request line is answered `431`, and an over-long NDJSON op
/// line gets an error line, each read only up to its bound. The peer
/// half-closes after its bytes, so the answer must arrive intact.
#[test]
fn over_long_lines_answer_structured_errors() {
    use std::io::{Read, Write};

    let handle = boot(pool_config(160), true);
    let exchange = |bytes: &[u8]| {
        let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(bytes).expect("write");
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("read reply");
        reply
    };

    // 16 KiB of request line with no newline: past the 8 KiB head bound.
    let mut line = b"GET /".to_vec();
    line.resize(16 << 10, b'a');
    let reply = exchange(&line);
    assert!(reply.starts_with("HTTP/1.1 431 "), "{reply}");
    assert!(reply.contains("header_too_large"), "{reply}");

    // One NDJSON op line past the body bound.
    let mut line = b"{\"op\":\"stats\",\"pad\":\"".to_vec();
    line.resize(kf_serve::http::MAX_BODY_BYTES + 16, b'a');
    let reply = exchange(&line);
    let first = reply.lines().next().unwrap_or_default();
    let value: Value = serde_json::from_str(first).expect("an error line");
    assert_eq!(str_field(&value, "error"), Some("line_too_long"));

    // The node still serves ordinary requests afterwards.
    let (status, _) = handle.client().stats().expect("stats");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn ndjson_fallback_session_supports_all_ops() {
    let engine_config = pool_config(160);
    let handle = boot(engine_config, true);
    let client = handle.client();
    let p = prompt(20, 7);
    let tokens: Vec<String> = p.iter().map(u32::to_string).collect();

    let responses = client
        .ndjson_session(&[
            format!(
                "{{\"op\":\"generate\",\"prompt\":[{}],\"max_new_tokens\":4,\"stream\":true}}",
                tokens.join(",")
            ),
            "{\"op\":\"stats\"}".to_string(),
            "{\"op\":\"status\",\"job_id\":1}".to_string(),
            "{\"op\":\"nonsense\"}".to_string(),
        ])
        .expect("ndjson session");

    // Streamed generate: accepted + 4 tokens + done, then the other replies.
    assert_eq!(str_field(&responses[0], "event"), Some("accepted"));
    let token_events: Vec<&Value> = responses
        .iter()
        .filter(|r| str_field(r, "event") == Some("token"))
        .collect();
    assert_eq!(token_events.len(), 4);
    assert!(responses
        .iter()
        .any(|r| str_field(r, "event") == Some("done")));
    let streamed: Vec<u32> = token_events
        .iter()
        .map(|e| u64_field(e, "token").unwrap() as u32)
        .collect();
    assert_eq!(streamed, direct_engine_tokens(engine_config, &p, 4));

    let stats = responses
        .iter()
        .find(|r| r.field("jobs").map(|j| j != &Value::Null).unwrap_or(false))
        .expect("a stats reply");
    assert_eq!(
        u64_field(stats.field("jobs").unwrap(), "submitted"),
        Some(1)
    );
    assert!(responses
        .iter()
        .any(|r| str_field(r, "state") == Some("done")));
    assert!(responses
        .iter()
        .any(|r| str_field(r, "error") == Some("invalid_request")));
    handle.shutdown();
}
