//! Byte-identity gates for the SWAR fast paths and raster kernels, run
//! over the *real* fixture sites rather than synthetic documents.
//!
//! The per-crate property suites (`swar_prop`, `swar_identity`,
//! `bloom_identity`, `strip_tag_prop`, `raster_identity`) hammer the
//! fast/scalar twins with generated inputs; this suite closes the loop
//! on the pages the paper's figures actually run over — every forum and
//! classifieds page the fixtures serve must tokenize, entity-decode,
//! strip, and select identically through the fast and scalar paths, and
//! the rendered forum snapshot must post-process to the same bytes.

use msite::pipeline::soa;
use msite_html::tokenizer::Tokenizer;
use msite_html::{entities, parse_document};
use msite_net::{Origin, Request};
use msite_render::browser::{Browser, BrowserConfig};
use msite_render::image::{process, process_scalar, ImageFormat, PostProcess};
use msite_selectors::SelectorList;
use msite_sites::{ClassifiedsConfig, ClassifiedsSite, ForumConfig, ForumSite};

/// Every HTML page body the identity checks sweep: forum entry page
/// and login subpage, classifieds front page and a search result.
fn fixture_pages() -> Vec<(String, String)> {
    let forum = ForumSite::new(ForumConfig::default());
    let classifieds = ClassifiedsSite::new(ClassifiedsConfig::default());
    let mut pages = Vec::new();
    for (label, origin, path) in [
        ("forum index", &forum as &dyn Origin, "/index.php"),
        ("forum login", &forum as &dyn Origin, "/login.php"),
        ("classifieds front", &classifieds as &dyn Origin, "/"),
        ("classifieds search", &classifieds as &dyn Origin, "/search"),
    ] {
        let base = match label.split_whitespace().next() {
            Some("forum") => forum.base_url(),
            _ => classifieds.base_url(),
        };
        let req = Request::get(&format!("{base}{path}")).expect("fixture url parses");
        let response = origin.handle(&req);
        let body = String::from_utf8_lossy(&response.body).into_owned();
        assert!(!body.is_empty(), "{label} served an empty body");
        pages.push((label.to_string(), body));
    }
    pages
}

#[test]
fn tokenizer_twins_agree_on_fixture_pages() {
    for (label, body) in fixture_pages() {
        let fast: Vec<_> = Tokenizer::new(&body).collect();
        let scalar: Vec<_> = Tokenizer::new_scalar(&body).collect();
        assert_eq!(fast, scalar, "tokenizer twins diverged on {label}");
        assert!(
            fast.len() > 10,
            "{label} produced a trivial token stream ({} tokens)",
            fast.len()
        );
    }
}

#[test]
fn entity_codec_twins_agree_on_fixture_pages() {
    for (label, body) in fixture_pages() {
        assert_eq!(
            entities::decode(&body),
            entities::decode_scalar(&body),
            "entity decode twins diverged on {label}"
        );
        assert_eq!(
            entities::encode_text(&body),
            entities::encode_text_scalar(&body),
            "entity encode twins diverged on {label}"
        );
    }
}

#[test]
fn strip_tag_twins_agree_on_fixture_pages() {
    for (label, body) in fixture_pages() {
        for tag in ["script", "style", "table", "a"] {
            assert_eq!(
                soa::strip_tag(&body, tag),
                soa::strip_tag_scalar(&body, tag),
                "strip_tag twins diverged on {label} for <{tag}>"
            );
        }
    }
}

#[test]
fn selector_twins_agree_on_fixture_pages() {
    let lists = [
        "div",
        "#loginform",
        "table td, .cat, #header a, form input",
        "div.wrap .x, #nav a, .row .cell, nav span",
    ];
    for (label, body) in fixture_pages() {
        let doc = parse_document(&body);
        for src in lists {
            let list = SelectorList::parse(src).expect("selector parses");
            assert_eq!(
                list.select(&doc, doc.root()),
                list.select_scalar(&doc, doc.root()),
                "selector twins diverged on {label} for `{src}`"
            );
        }
    }
}

#[test]
fn snapshot_post_process_twins_agree_on_forum_render() {
    let (label, body) = fixture_pages()
        .into_iter()
        .next()
        .expect("forum index is the first fixture page");
    let rendered = Browser::launch(BrowserConfig::default()).render_page(&body, &[]);
    // The forum spec's snapshot (half scale, quality 40) and the
    // unscaled quality-50 subpage pre-render.
    for spec in [
        PostProcess {
            scale: Some(0.5),
            format: ImageFormat::JpegClass { quality: 40 },
            ..Default::default()
        },
        PostProcess {
            format: ImageFormat::JpegClass { quality: 50 },
            ..Default::default()
        },
    ] {
        let fast = process(&rendered.canvas, &spec);
        let scalar = process_scalar(&rendered.canvas, &spec);
        assert_eq!(
            fast.canvas, scalar.canvas,
            "post-process twins diverged on {label} for {spec:?}"
        );
        assert_eq!(fast.encoded, scalar.encoded, "{label} {spec:?}");
        assert_eq!(fast.wire_size, scalar.wire_size, "{label} {spec:?}");
    }
}
