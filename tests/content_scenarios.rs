//! Content-adaptation conformance: a real `HttpServer` on a loopback
//! socket in front of a real `ProxyServer` adapting the ad-heavy
//! [`NewsSite`] fixture, exercised by real TCP clients.
//!
//! Each scenario pins one content-aware attribute end to end:
//! - `extract-main-content` keeps the article and drops every
//!   boilerplate region;
//! - `strip-boilerplate` removes exactly the regions its
//!   aggressiveness admits, with exact `msite_blocks_stripped_total`
//!   deltas per kind;
//! - `fidelity-tier auto` resolves the client's bandwidth class and
//!   re-encodes gallery images so 2G wire bytes land strictly below
//!   WiFi, with exact `msite_fidelity_tier` deltas;
//! - adapted output is byte-identical across pipeline parallelism
//!   widths.

use msite::attributes::{AdaptationSpec, Attribute, Target};
use msite::proxy::{ProxyConfig, ProxyServer};
use msite_net::{http_get, http_request, HttpServer, Origin, OriginRef, Request, Response};
use msite_sites::{NewsConfig, NewsSite};
use msite_support::telemetry::Telemetry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// One proxy + one HTTP server wired through a shared telemetry handle.
struct Stack {
    server: HttpServer,
}

impl Stack {
    fn up(spec: AdaptationSpec, origin: OriginRef, config: ProxyConfig) -> Stack {
        let mut config = config;
        if config.telemetry.is_none() {
            config.telemetry = Some(Telemetry::new());
        }
        let telemetry = config.telemetry.clone().unwrap();
        let proxy = Arc::new(ProxyServer::new(spec, origin, config));
        let server = HttpServer::bind_with_telemetry(
            "127.0.0.1:0",
            proxy as OriginRef,
            Default::default(),
            telemetry,
        )
        .unwrap();
        Stack { server }
    }

    fn url(&self, path: &str) -> String {
        format!("http://{}{path}", self.server.addr())
    }

    /// Scrapes `GET /metrics` into `series -> value`.
    fn scrape(&self) -> BTreeMap<String, i64> {
        let response = http_get(&self.url("/metrics")).unwrap();
        assert!(response.status.is_success());
        let mut samples = BTreeMap::new();
        for line in response.body_text().lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("malformed sample line");
            samples.insert(series.to_string(), value.parse::<i64>().unwrap());
        }
        samples
    }

    fn down(self) {
        self.server.shutdown();
    }
}

fn sample(samples: &BTreeMap<String, i64>, series: &str) -> i64 {
    *samples.get(series).unwrap_or_else(|| {
        panic!(
            "series {series:?} missing from scrape; have: {:?}",
            samples.keys().collect::<Vec<_>>()
        )
    })
}

fn news_origin() -> OriginRef {
    Arc::new(NewsSite::new(NewsConfig::default()))
}

fn spec_with(url: &str, attributes: Vec<Attribute>) -> AdaptationSpec {
    let mut spec = AdaptationSpec::new("t", url);
    // No snapshot: the entry page is the adapted document itself.
    spec.snapshot = None;
    spec.rule(Target::Css("body".into()), attributes)
}

fn cookie_of(response: &Response) -> String {
    response
        .headers
        .get("set-cookie")
        .unwrap()
        .split(';')
        .next()
        .unwrap()
        .to_string()
}

// --- Scenario 1: extraction keeps the article, drops every other region ---

#[test]
fn extraction_keeps_article_and_drops_boilerplate_regions() {
    let stack = Stack::up(
        spec_with("http://news.test/", vec![Attribute::ExtractMainContent]),
        news_origin(),
        ProxyConfig::default(),
    );

    let entry = http_get(&stack.url("/m/t/")).unwrap();
    assert!(entry.status.is_success());
    let body = entry.body_text();

    // The article (the readability top candidate) survives whole.
    assert!(body.contains("article-body"), "article dropped: {body}");
    assert!(body.contains("class=\"byline\""));
    // Every boilerplate region around it is gone.
    for marker in [
        "advert",
        "ad-banner",
        "navbar",
        "sidebar",
        "comment-list",
        "share social",
        "copyright",
    ] {
        assert!(!body.contains(marker), "boilerplate {marker:?} survived");
    }
    stack.down();
}

// --- Scenario 2: stripping removes exactly what the aggressiveness admits ---

#[test]
fn stripping_counts_exact_per_kind_metrics() {
    // Aggressiveness 2: ads, nav, footer, sidebar and social go;
    // comments (level 3) stay.
    let stack = Stack::up(
        spec_with(
            "http://news.test/",
            vec![Attribute::StripBoilerplate { aggressiveness: 2 }],
        ),
        news_origin(),
        ProxyConfig::default(),
    );
    let entry = http_get(&stack.url("/m/t/")).unwrap();
    assert!(entry.status.is_success());
    let body = entry.body_text();
    assert!(body.contains("article-body"));
    assert!(
        body.contains("comment-list"),
        "comments stripped at level 2"
    );
    for marker in ["advert", "navbar", "sidebar", "copyright", "share social"] {
        assert!(!body.contains(marker), "{marker:?} survived level 2");
    }

    // One entry build, one strip per top-most region: exact deltas.
    // The nested advert divs ride out with their leaderboard parent, so
    // kind="ad" counts 1, not 5.
    let samples = stack.scrape();
    for kind in ["ad", "nav", "footer", "sidebar", "social"] {
        assert_eq!(
            sample(
                &samples,
                &format!("msite_blocks_stripped_total{{kind=\"{kind}\"}}")
            ),
            1,
            "kind {kind}"
        );
    }
    assert!(
        !samples.keys().any(|k| k.contains("kind=\"comment\"")),
        "comment series must not exist at level 2"
    );
    stack.down();

    // Aggressiveness 3 additionally takes the comment section.
    let stack = Stack::up(
        spec_with(
            "http://news.test/",
            vec![Attribute::StripBoilerplate { aggressiveness: 3 }],
        ),
        news_origin(),
        ProxyConfig::default(),
    );
    let body = http_get(&stack.url("/m/t/")).unwrap().body_text();
    assert!(!body.contains("comment-list"));
    assert!(body.contains("article-body"));
    let samples = stack.scrape();
    assert_eq!(
        sample(&samples, "msite_blocks_stripped_total{kind=\"comment\"}"),
        1
    );
    stack.down();
}

// --- Scenario 3: fidelity tiers — 2G wire bytes strictly below WiFi ---

#[test]
fn gallery_fidelity_tiers_scale_image_bytes_with_bandwidth() {
    let stack = Stack::up(
        spec_with(
            "http://news.test/gallery",
            vec![Attribute::FidelityTier { tier: None }],
        ),
        news_origin(),
        ProxyConfig::default(),
    );
    let images = NewsConfig::default().gallery_images;

    // 2G client: the bandwidth header drives the auto tier.
    let low = http_request(
        &Request::get(&stack.url("/m/t/"))
            .unwrap()
            .with_header("x-msite-bandwidth", "2g"),
    )
    .unwrap();
    assert!(low.status.is_success());
    let cookie = cookie_of(&low);
    let low_body = low.body_text();
    let mut low_bytes = 0usize;
    for i in 1..=images {
        let name = format!("fid{i}_2g.png");
        assert!(low_body.contains(&name), "entry missing {name}");
        let img = http_request(
            &Request::get(&stack.url(&format!("/m/t/img/{name}")))
                .unwrap()
                .with_header("cookie", &cookie),
        )
        .unwrap();
        assert!(img.status.is_success(), "{name}: {}", img.status);
        assert!(img.body.starts_with(&[0x89, b'P', b'N', b'G']));
        low_bytes += img.body.len();
    }

    // Same session over WiFi: a separate per-tier cache entry.
    let high = http_request(
        &Request::get(&stack.url("/m/t/"))
            .unwrap()
            .with_header("cookie", &cookie)
            .with_header("x-msite-bandwidth", "wifi"),
    )
    .unwrap();
    assert!(high.status.is_success());
    let high_body = high.body_text();
    assert_ne!(low_body, high_body, "tiers must produce distinct entries");
    let mut high_bytes = 0usize;
    for i in 1..=images {
        let name = format!("fid{i}_wifi.png");
        assert!(high_body.contains(&name), "entry missing {name}");
        let img = http_request(
            &Request::get(&stack.url(&format!("/m/t/img/{name}")))
                .unwrap()
                .with_header("cookie", &cookie),
        )
        .unwrap();
        assert!(img.status.is_success(), "{name}: {}", img.status);
        high_bytes += img.body.len();
    }
    assert!(
        low_bytes < high_bytes,
        "2G wire bytes ({low_bytes}) must land strictly below WiFi ({high_bytes})"
    );

    // No header and no recognizable User-Agent falls back to WiFi, and
    // the per-tier cache serves it without a rebuild.
    let fallback = http_request(
        &Request::get(&stack.url("/m/t/"))
            .unwrap()
            .with_header("cookie", &cookie),
    )
    .unwrap();
    assert_eq!(fallback.body_text(), high_body);

    let samples = stack.scrape();
    assert_eq!(sample(&samples, "msite_fidelity_tier{tier=\"2g\"}"), 1);
    assert_eq!(sample(&samples, "msite_fidelity_tier{tier=\"wifi\"}"), 2);
    assert_eq!(
        sample(&samples, "msite_proxy_origin_fetches_total"),
        2,
        "two tiers, two builds; the fallback request is a cache hit"
    );
    stack.down();
}

// --- Scenario 3b: a tiered image requested mid-rebuild waits for it ---

#[test]
fn tiered_image_requested_mid_rebuild_waits_for_the_rebuild() {
    // The first origin fetch parks until released, so the image request
    // lands while the 2G entry rebuild is in flight.
    let news = news_origin();
    let arrived = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let gated = Arc::new(AtomicBool::new(true));
    let origin: OriginRef = {
        let (arrived, release) = (Arc::clone(&arrived), Arc::clone(&release));
        Arc::new(move |req: &Request| {
            if gated.swap(false, Ordering::SeqCst) {
                arrived.wait();
                release.wait();
            }
            news.handle(req)
        })
    };
    let proxy = Arc::new(ProxyServer::new(
        spec_with(
            "http://news.test/gallery",
            vec![Attribute::FidelityTier { tier: None }],
        ),
        origin,
        ProxyConfig::default(),
    ));
    let get_2g = |path: &str| {
        let proxy = Arc::clone(&proxy);
        let request = Request::get(&format!("http://p/m/t{path}"))
            .unwrap()
            .with_header("x-msite-bandwidth", "2g");
        std::thread::spawn(move || proxy.handle(&request))
    };

    let entry = get_2g("/");
    arrived.wait();
    let image = get_2g("/img/fid1_2g.png");
    // The image request's session marks it as routed. Joining a flight
    // is an observation hook with no counter to wait on, so give it a
    // moment to park: an early answer is then a wrong answer, while a
    // slow thread can only make this check pass without testing.
    while proxy.stats().sessions_created < 2 {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !image.is_finished(),
        "the image request must join the 2G rebuild, not answer early"
    );
    release.wait();
    let entry = entry.join().unwrap();
    assert!(entry.status.is_success());
    assert!(entry.body_text().contains("fid1_2g.png"));
    let image = image.join().unwrap();
    assert!(
        image.status.is_success(),
        "mid-rebuild image: {}",
        image.status
    );
    assert!(image.body.starts_with(&[0x89, b'P', b'N', b'G']));
}

// --- Scenario 4: byte determinism across pipeline parallelism widths ---

#[test]
fn adapted_output_is_byte_identical_across_parallel_widths() {
    let spec = || {
        let mut spec = AdaptationSpec::new("t", "http://news.test/");
        spec.snapshot = None;
        spec.rule(
            Target::Css("body".into()),
            vec![Attribute::StripBoilerplate { aggressiveness: 2 }],
        )
        .rule(
            Target::Css("#story".into()),
            vec![Attribute::Subpage {
                id: "story".into(),
                title: "Story".into(),
                ajax: false,
                prerender: false,
            }],
        )
    };
    let mut bodies: Vec<(String, String)> = Vec::new();
    for parallelism in [1usize, 4] {
        let stack = Stack::up(
            spec(),
            news_origin(),
            ProxyConfig {
                pipeline_parallelism: parallelism,
                ..ProxyConfig::default()
            },
        );
        let entry = http_get(&stack.url("/m/t/")).unwrap();
        assert!(entry.status.is_success());
        let cookie = cookie_of(&entry);
        let subpage = http_request(
            &Request::get(&stack.url("/m/t/s/story.html"))
                .unwrap()
                .with_header("cookie", &cookie),
        )
        .unwrap();
        assert!(subpage.status.is_success());
        bodies.push((entry.body_text(), subpage.body_text()));
        stack.down();
    }
    assert_eq!(
        bodies[0].0, bodies[1].0,
        "entry bytes diverge across widths"
    );
    assert_eq!(
        bodies[0].1, bodies[1].1,
        "subpage bytes diverge across widths"
    );
}
