//! The three workloads: how each is set up, which requests its clients
//! send, and how every response is checked. All run closed loops: a
//! client sends its next request only after the previous response ended,
//! as a phone waits for its page before the next click.

use crate::client::{Client, Exchange};
use crate::measure::{check_png, process_cpu};
use crate::stack::{Stack, SEQ_HEADER};
use msite::proxy::{ProxyConfig, STREAM_HEADER};
use msite_net::{Origin, Prng, Request};
use std::time::{Duration, Instant};

/// URL prefix of the forum proxy.
pub const BASE: &str = "/m/forum";

/// Returning users whose sessions `warm_browse` creates in setup.
const WARM_USERS: usize = 32;

/// `new_users` session bound: small enough that setup fills the store,
/// so every timed request creates one session and evicts one.
const NEW_USERS_SESSION_BOUND: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Returning users on already-built pages: cache and session reads.
    WarmBrowse,
    /// First-contact users asking for a subpage: a per-user pipeline run
    /// and session writes.
    NewUsers,
    /// The shared entry past its snapshot TTL before every streamed
    /// request: one full rebuild, browser render included, per request.
    SnapshotRefresh,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WarmBrowse,
        Workload::NewUsers,
        Workload::SnapshotRefresh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmBrowse => "warm_browse",
            Workload::NewUsers => "new_users",
            Workload::SnapshotRefresh => "snapshot_refresh",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients, never more than the host's cores.
    /// `snapshot_refresh` has one: a second client racing the clock
    /// would make its latency bimodal, and the second core serves the
    /// pipeline's own fan-out instead. `new_users` has one: the session
    /// store evicts by per-shard clocks, so a second client's create can
    /// evict a session whose subpage is still being built, and that
    /// request fails with a 404. The eviction order itself is measured
    /// serially by the traced run's `session.newest_evicted_ratio`.
    pub fn clients(self) -> usize {
        let wanted = match self {
            Workload::WarmBrowse => 2,
            Workload::NewUsers | Workload::SnapshotRefresh => 1,
        };
        wanted.min(nproc())
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Page {
    Entry,
    Snapshot,
    Subpage,
}

impl Page {
    fn path(self) -> String {
        match self {
            Page::Entry => format!("{BASE}/"),
            Page::Snapshot => format!("{BASE}/img/snapshot.png"),
            Page::Subpage => format!("{BASE}/s/forums.html"),
        }
    }
}

/// A set-up stack plus what the checks compare against.
pub struct Prepared {
    pub workload: Workload,
    pub stack: Stack,
    /// `cookie` header values of the returning users.
    pub users: Vec<String>,
    /// The batch entry body from an in-process `handle()`.
    entry_reference: Vec<u8>,
    /// Forum names the subpage listing must carry.
    forum_names: Vec<String>,
    snapshot_ttl: Duration,
}

/// Brings the stack up and warms it into the workload's steady state.
pub fn setup(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let max_sessions = match workload {
        Workload::NewUsers => NEW_USERS_SESSION_BOUND,
        _ => ProxyConfig::default().max_sessions,
    };
    let stack = Stack::up(seed, max_sessions).map_err(|e| format!("stack setup: {e}"))?;
    let mut client = Client::new(stack.proxy_addr());
    let mut first_contact = |page: Page| -> Result<String, String> {
        let ex = client
            .get(&page.path(), &[])
            .map_err(|e| format!("setup {}: {e}", page.path()))?;
        if ex.status != 200 {
            return Err(format!("setup {}: status {}", page.path(), ex.status));
        }
        ex.header("set-cookie")
            .and_then(|c| c.split(';').next())
            .map(str::to_string)
            .ok_or_else(|| format!("setup {}: no session cookie", page.path()))
    };
    let mut users = Vec::new();
    match workload {
        Workload::WarmBrowse => {
            first_contact(Page::Entry)?;
            for _ in 0..WARM_USERS {
                users.push(first_contact(Page::Subpage)?);
            }
        }
        Workload::NewUsers => {
            for _ in 0..NEW_USERS_SESSION_BOUND {
                first_contact(Page::Subpage)?;
            }
        }
        Workload::SnapshotRefresh => users.push(first_contact(Page::Entry)?),
    }

    let mut reference_request =
        Request::get(&format!("http://localhost{BASE}/")).map_err(|e| e.to_string())?;
    if let Some(user) = users.first() {
        reference_request = reference_request.with_header("cookie", user);
    }
    let entry = stack.proxy.handle(&reference_request).into_collected();
    if entry.status.0 != 200 {
        return Err(format!(
            "in-process entry reference: status {}",
            entry.status
        ));
    }
    let spec = stack.proxy.spec();
    let page = stack
        .hop
        .handle(&Request::get(&spec.page_url).map_err(|e| e.to_string())?);
    let forum_names = forum_names(&page.body_text());
    if forum_names.is_empty() {
        return Err("origin page lists no forums".to_string());
    }
    Ok(Prepared {
        workload,
        snapshot_ttl: Duration::from_secs(spec.snapshot.as_ref().map_or(0, |s| s.cache_ttl_secs)),
        stack,
        users,
        entry_reference: entry.body.to_vec(),
        forum_names,
    })
}

/// Names of the forums in the origin page's `#forumbits` listing.
fn forum_names(origin_page: &str) -> Vec<String> {
    let doc = msite_html::tidy(origin_page);
    let Ok(links) = msite_selectors::SelectorList::parse("#forumbits a.forumtitle") else {
        return Vec::new();
    };
    links
        .select(&doc, doc.root())
        .into_iter()
        .map(|link| doc.text_content(link).trim().to_string())
        .filter(|name| !name.is_empty())
        .collect()
}

/// One client-side observation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub seq: u64,
    pub ok: bool,
    pub latency: Duration,
    pub ttfb: Duration,
    pub wire_bytes: u64,
    pub connects: u32,
}

/// Everything one timed window produced.
pub struct Window {
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
    pub cpu: Duration,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted() - self.failed()
    }
}

/// Runs the workload's closed loop for `duration`. `phase` separates the
/// request streams of different windows of one run; with `tracing`, each
/// request carries its sequence number for the proxy tap.
pub fn run_window(
    prepared: &Prepared,
    seed: u64,
    phase: u64,
    duration: Duration,
    tracing: bool,
) -> Window {
    let clients = prepared.workload.clients();
    let cpu_before = process_cpu();
    let started = Instant::now();
    let deadline = started + duration;
    let per_client: Vec<(Vec<Sample>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                scope.spawn(move || {
                    let stream_seed = seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(phase << 32 | index as u64);
                    client_loop(prepared, Prng::new(stream_seed), index, deadline, tracing)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let cpu = process_cpu().saturating_sub(cpu_before);
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    for (s, f) in per_client {
        samples.extend(s);
        failures.extend(f);
    }
    failures.truncate(8);
    Window {
        samples,
        elapsed,
        cpu,
        failures,
    }
}

fn client_loop(
    prepared: &Prepared,
    mut rng: Prng,
    index: usize,
    deadline: Instant,
    tracing: bool,
) -> (Vec<Sample>, Vec<String>) {
    let mut client = Client::new(prepared.stack.proxy_addr());
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    // warm_browse visits the three pages in a seeded order per block of
    // three, so every run has the same page mix.
    let mut block: Vec<Page> = Vec::new();
    let mut n = 0u64;
    while Instant::now() < deadline {
        let seq = (index as u64) << 40 | n;
        n += 1;
        let (page, user, stream) = match prepared.workload {
            Workload::WarmBrowse => {
                if block.is_empty() {
                    block = vec![Page::Entry, Page::Snapshot, Page::Subpage];
                    for i in (1..block.len()).rev() {
                        block.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                }
                let user = rng.below(prepared.users.len() as u64) as usize;
                (
                    block.pop().expect("block refilled above"),
                    Some(user),
                    false,
                )
            }
            Workload::NewUsers => (Page::Subpage, None, false),
            Workload::SnapshotRefresh => {
                // The hourly rebuild, compressed: move the shared entry
                // past its TTL so this request leads one rebuild.
                prepared
                    .stack
                    .proxy
                    .cache()
                    .advance_clock(prepared.snapshot_ttl + Duration::from_secs(1));
                (Page::Entry, Some(0), true)
            }
        };
        let seq_text = seq.to_string();
        let mut headers: Vec<(&str, &str)> = Vec::new();
        if let Some(user) = user {
            headers.push(("cookie", &prepared.users[user]));
        }
        if stream {
            headers.push((STREAM_HEADER, "chunked"));
        }
        if tracing {
            headers.push((SEQ_HEADER, &seq_text));
        }
        let path = page.path();
        let (ok, latency, ttfb, wire_bytes, connects) = match client.get(&path, &headers) {
            Ok(ex) => {
                let verdict = check(prepared, page, stream, &ex);
                if let Err(why) = &verdict {
                    failures.push(format!("{path}: {why}"));
                }
                (
                    verdict.is_ok(),
                    ex.latency,
                    ex.ttfb,
                    ex.wire_bytes,
                    ex.connects,
                )
            }
            Err(e) => {
                failures.push(format!("{path}: transport error: {e}"));
                (false, Duration::ZERO, Duration::ZERO, 0, 0)
            }
        };
        samples.push(Sample {
            seq,
            ok,
            latency,
            ttfb,
            wire_bytes,
            connects,
        });
    }
    (samples, failures)
}

/// The body checks. A `503` shed is a failure like any other status.
fn check(prepared: &Prepared, page: Page, stream: bool, ex: &Exchange) -> Result<(), String> {
    if ex.status != 200 && ex.status != 304 {
        return Err(format!("status {}", ex.status));
    }
    match page {
        Page::Entry => {
            let chunked = ex
                .header("transfer-encoding")
                .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
            if stream && !chunked {
                return Err("streamed entry was not chunked".to_string());
            }
            if ex.body != prepared.entry_reference {
                return Err(format!(
                    "entry body ({} bytes) differs from the in-process reference ({} bytes)",
                    ex.body.len(),
                    prepared.entry_reference.len()
                ));
            }
        }
        Page::Snapshot => check_png(&ex.body)?,
        Page::Subpage => {
            let text = String::from_utf8_lossy(&ex.body);
            let listed = prepared
                .forum_names
                .iter()
                .filter(|name| text.contains(&*msite_html::entities::encode_text(name)))
                .count();
            if listed != prepared.forum_names.len() {
                return Err(format!(
                    "subpage lists {listed} of {} forums",
                    prepared.forum_names.len()
                ));
            }
        }
    }
    Ok(())
}
