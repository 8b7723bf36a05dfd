//! Multi-session behavior: isolation between users, shared-cache
//! amortization across users, and thread-safety under concurrent load.

use msite::attributes::{AdaptationSpec, Attribute, SnapshotSpec, Target};
use msite::proxy::{ProxyConfig, ProxyServer};
use msite_net::{Origin, OriginRef, Request, Response, Status};
use msite_sites::{ForumConfig, ForumSite};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn deploy() -> (Arc<ForumSite>, Arc<ProxyServer>) {
    let site = Arc::new(ForumSite::new(ForumConfig::default()));
    let mut spec = AdaptationSpec::new("forum", &format!("{}/index.php", site.base_url()));
    spec.snapshot = Some(SnapshotSpec::default());
    let spec = spec.rule(
        Target::Css("#loginform".into()),
        vec![Attribute::Subpage {
            id: "login".into(),
            title: "Log in".into(),
            ajax: false,
            prerender: false,
        }],
    );
    let proxy = Arc::new(ProxyServer::new(
        spec,
        Arc::clone(&site) as OriginRef,
        ProxyConfig::default(),
    ));
    (site, proxy)
}

fn get(proxy: &ProxyServer, path: &str, cookie: Option<&str>) -> Response {
    let mut req = Request::get(&format!("http://p{path}")).unwrap();
    if let Some(c) = cookie {
        req = req.with_header("cookie", c);
    }
    proxy.handle(&req)
}

fn cookie_of(response: &Response) -> String {
    response
        .headers
        .get("set-cookie")
        .expect("cookie")
        .split(';')
        .next()
        .unwrap()
        .to_string()
}

#[test]
fn cookie_jars_do_not_leak_between_users() {
    let (site, proxy) = deploy();
    let alice = cookie_of(&get(&proxy, "/m/forum/", None));
    let bob = cookie_of(&get(&proxy, "/m/forum/", None));
    assert_ne!(alice, bob);

    // Alice logs into the origin through the passthrough.
    let (user, pass) = ForumSite::demo_credentials();
    let login = proxy.handle(
        &Request::post_form(
            "http://p/m/forum/o/login.php",
            &[("vb_login_username", user), ("vb_login_password", pass)],
        )
        .unwrap()
        .with_header("cookie", &alice),
    );
    assert!(login.status.is_redirect());

    // Alice reaches the private origin area; Bob is bounced to login.
    let alice_private = get(&proxy, "/m/forum/o/private/index.php", Some(&alice));
    assert!(alice_private.status.is_success());
    let bob_private = get(&proxy, "/m/forum/o/private/index.php", Some(&bob));
    assert!(bob_private.status.is_redirect());
    drop(site);
}

#[test]
fn session_files_are_per_user() {
    let (_site, proxy) = deploy();
    let alice = cookie_of(&get(&proxy, "/m/forum/", None));
    let bob = cookie_of(&get(&proxy, "/m/forum/", None));
    let _ = get(&proxy, "/m/forum/s/login.html", Some(&alice));
    let _ = get(&proxy, "/m/forum/s/login.html", Some(&bob));
    let alice_id = alice.split('=').nth(1).unwrap();
    let bob_id = bob.split('=').nth(1).unwrap();
    let paths = proxy.stored_files();
    assert!(paths.iter().any(|p| p.contains(alice_id)));
    assert!(paths.iter().any(|p| p.contains(bob_id)));
    // Logout wipes only the owner's directory.
    let _ = get(&proxy, "/m/forum/logout", Some(&alice));
    let paths = proxy.stored_files();
    assert!(!paths.iter().any(|p| p.contains(alice_id)));
    assert!(paths.iter().any(|p| p.contains(bob_id)));
}

#[test]
fn snapshot_render_amortized_across_many_users() {
    let (_site, proxy) = deploy();
    for _ in 0..25 {
        let entry = get(&proxy, "/m/forum/", None);
        assert!(entry.status.is_success());
    }
    let stats = proxy.stats();
    assert_eq!(stats.full_renders, 1, "one render serves 25 users");
    assert_eq!(stats.sessions_created, 25);
    assert!(proxy.cache().stats().hits >= 24);
    assert!(proxy.cache().amortized_savings().as_millis() > 0);
}

#[test]
fn concurrent_users_hammering_the_proxy() {
    let (_site, proxy) = deploy();
    // Warm once so threads race on the fast path and the session map.
    let _ = get(&proxy, "/m/forum/", None);
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let proxy = Arc::clone(&proxy);
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let entry = proxy.handle(&Request::get("http://p/m/forum/").unwrap());
                    assert!(entry.status.is_success());
                    let cookie = cookie_of(&entry);
                    let login = proxy.handle(
                        &Request::get("http://p/m/forum/s/login.html")
                            .unwrap()
                            .with_header("cookie", &cookie),
                    );
                    assert!(login.status.is_success(), "{}", login.status);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panics");
    }
    let stats = proxy.stats();
    assert_eq!(stats.requests, 8 * 20 * 2 + 1);
    // The single-flight layer makes this exact: the warmup rendered the
    // snapshot once and no later request may render it again.
    assert_eq!(stats.full_renders, 1);
}

#[test]
fn cold_stampede_collapses_to_one_render() {
    let (_site, proxy) = deploy();
    // No warmup: 8 users hit the cold proxy at the same instant, all
    // missing on the shared entry page simultaneously.
    let gate = Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let proxy = Arc::clone(&proxy);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                let entry = proxy.handle(&Request::get("http://p/m/forum/").unwrap());
                assert!(entry.status.is_success());
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panics");
    }
    let stats = proxy.stats();
    assert_eq!(
        stats.full_renders, 1,
        "cold stampede must coalesce to one render"
    );
    assert_eq!(stats.renders_coalesced, 7);
    assert_eq!(proxy.cache().stats().coalesced, 7);
    assert_eq!(
        stats.sessions_created, 8,
        "coalescing must not merge sessions"
    );
}

#[test]
fn streamed_cold_stampede_collapses_to_one_render() {
    use msite::proxy::STREAM_HEADER;
    let (_site, proxy) = deploy();
    // No warmup: 8 streamed requests hit the cold proxy at once. The
    // streaming path must claim/join the same single-flight the batch
    // path uses, so exactly one pipeline run serves all of them.
    let gate = Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let proxy = Arc::clone(&proxy);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                let entry = proxy.handle(
                    &Request::get("http://p/m/forum/")
                        .unwrap()
                        .with_header(STREAM_HEADER, "chunked"),
                );
                assert!(entry.status.is_success());
                // Draining the stream is what runs the leader's
                // deferred pipeline (and completes the flight).
                entry.into_collected().body_text()
            })
        })
        .collect();
    let bodies: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("no thread panics"))
        .collect();
    assert!(
        bodies.iter().all(|b| *b == bodies[0] && !b.is_empty()),
        "every streamed client gets the same entry bytes"
    );
    let stats = proxy.stats();
    assert_eq!(
        stats.full_renders, 1,
        "streamed cold stampede must coalesce to one render"
    );
    assert_eq!(stats.renders_coalesced, 7);
    assert_eq!(stats.streamed_responses, 8);
}

#[test]
fn mixed_streamed_and_batch_stampede_still_renders_once() {
    use msite::proxy::STREAM_HEADER;
    let (_site, proxy) = deploy();
    // Half the cold stampede opts into streaming, half stays batch;
    // whichever request leads, the other seven must join its flight.
    let gate = Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let proxy = Arc::clone(&proxy);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let mut req = Request::get("http://p/m/forum/").unwrap();
                if i % 2 == 0 {
                    req = req.with_header(STREAM_HEADER, "chunked");
                }
                gate.wait();
                let entry = proxy.handle(&req);
                assert!(entry.status.is_success());
                assert!(!entry.into_collected().body_text().is_empty());
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panics");
    }
    let stats = proxy.stats();
    assert_eq!(
        stats.full_renders, 1,
        "mixed stampede must coalesce to one render"
    );
    assert_eq!(stats.renders_coalesced, 7);
    assert_eq!(stats.streamed_responses, 4);
}

/// Eight cold `GET /` requests at once, streamed or batch, against an
/// origin that takes 60 ms to answer 503. Returns the origin-call count
/// and the sorted response statuses.
fn outage_stampede(streamed: bool) -> (usize, Vec<u16>) {
    use msite::proxy::STREAM_HEADER;
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&calls);
    let origin: OriginRef = Arc::new(move |_req: &Request| {
        counted.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(60));
        Response::error(Status::SERVICE_UNAVAILABLE, "outage")
    });
    let mut spec = AdaptationSpec::new("forum", "http://down.test/index.php");
    spec.snapshot = Some(SnapshotSpec::default());
    let proxy = Arc::new(ProxyServer::new(spec, origin, ProxyConfig::default()));
    let gate = Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let proxy = Arc::clone(&proxy);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let mut req = Request::get("http://p/m/forum/").unwrap();
                if streamed {
                    req = req.with_header(STREAM_HEADER, "chunked");
                }
                gate.wait();
                proxy.handle(&req).status.0
            })
        })
        .collect();
    let mut statuses: Vec<u16> = handles
        .into_iter()
        .map(|h| h.join().expect("no thread panics"))
        .collect();
    statuses.sort_unstable();
    (calls.load(Ordering::SeqCst), statuses)
}

#[test]
fn streamed_outage_stampede_fails_like_batch() {
    let batch = outage_stampede(false);
    assert_eq!(
        batch,
        (3, vec![502; 8]),
        "batch: one leader plus its retries, its failure shared by all"
    );
    // The streamed leader fails its flight the same way, so waiters
    // share the error instead of re-leading against the dead origin.
    assert_eq!(outage_stampede(true), batch);
}

#[test]
fn session_cookie_scoped_to_proxy_base() {
    let (_site, proxy) = deploy();
    let entry = get(&proxy, "/m/forum/", None);
    let set_cookie = entry.headers.get("set-cookie").unwrap();
    assert!(set_cookie.contains("Path=/m/forum"));
    assert!(set_cookie.contains("HttpOnly"));
}
