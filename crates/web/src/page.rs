//! The page model: what a Google Scholar page load consists of.
//!
//! A page is an HTML document plus subresources. The HTML body carries a
//! plain-text manifest the browser model parses; the Figure-4 structure is
//! reproduced by an extra "account recording" resource on a separate host
//! that is fetched only on a first visit (TCP-4 in the paper).

use std::borrow::Cow;
use std::io::Write;

use sc_netproto::scan;

/// One subresource referenced by a page: its host and path owned (`S =
/// String`, a page model's), or as [`PageSpec::parse_manifest`] reads
/// them, borrowed from the body they are written in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource<S = String> {
    /// Host serving the resource.
    pub host: S,
    /// Path on that host.
    pub path: S,
    /// Body size in bytes.
    pub len: usize,
    /// Fetched only on first visits (the account-recording connection).
    pub first_visit_only: bool,
}

impl<S> Resource<S> {
    /// The same resource with its host and path converted by `f`.
    pub fn map<T>(self, f: impl Fn(S) -> T) -> Resource<T> {
        Resource { host: f(self.host), path: f(self.path), len: self.len, first_visit_only: self.first_visit_only }
    }
}

/// A page: HTML plus subresources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageSpec {
    /// Size of the HTML document body (manifest lines + padding).
    pub html_len: usize,
    /// Subresources.
    pub resources: Vec<Resource>,
}

impl PageSpec {
    /// The Google Scholar home page model. Sized so that one full direct
    /// access moves ≈19 KB — the paper's Figure 6a baseline.
    pub fn google_scholar() -> Self {
        PageSpec {
            html_len: 6_000,
            resources: vec![
                Resource {
                    host: "scholar.google.com".into(),
                    path: "/css/scholar.css".into(),
                    len: 3_000,
                    first_visit_only: false,
                },
                Resource {
                    host: "scholar.google.com".into(),
                    path: "/js/scholar.js".into(),
                    len: 5_000,
                    first_visit_only: false,
                },
                Resource {
                    host: "scholar.google.com".into(),
                    path: "/img/scholar-logo.png".into(),
                    len: 3_500,
                    first_visit_only: false,
                },
                Resource {
                    host: "accounts.google.com".into(),
                    path: "/recordlogin".into(),
                    len: 400,
                    first_visit_only: true,
                },
            ],
        }
    }

    /// A host that serves a handful of standalone endpoints (the
    /// account-recording host): each endpoint is exposed as a resource so
    /// [`OriginServer`](crate::origin::OriginServer) will serve it.
    pub fn endpoints(host: &str, paths: &[(&str, usize)]) -> Self {
        PageSpec {
            html_len: 200,
            resources: paths
                .iter()
                .map(|(path, len)| Resource {
                    host: host.into(),
                    path: (*path).into(),
                    len: *len,
                    first_visit_only: false,
                })
                .collect(),
        }
    }

    /// Renders the HTML body: manifest lines followed by padding.
    pub fn render_html(&self) -> Vec<u8> {
        const PADDING: &[u8] = b"<p>scholarly padding content for realistic sizing</p>\n";
        // Written into the one buffer the page is: room for the manifest
        // or for the padded length, whichever is longer, so it never grows.
        let manifest: usize = self.resources.iter().map(|r| r.host.len() + r.path.len() + 40).sum();
        let mut bytes = Vec::with_capacity((40 + manifest).max(self.html_len + PADDING.len()));
        bytes.extend_from_slice(b"<!doctype html><!-- scholar page -->\n");
        for r in &self.resources {
            let visits = if r.first_visit_only { "first" } else { "always" };
            writeln!(bytes, "RES {} {} {} {}", r.host, r.path, r.len, visits)
                .expect("writing to a Vec is infallible");
        }
        while bytes.len() < self.html_len {
            bytes.extend_from_slice(PADDING);
        }
        bytes.truncate(self.html_len);
        bytes
    }

    /// Parses the manifest back out of an HTML body: the `RES ` lines,
    /// wherever they stand, in order. Lines are cut the way `str::lines`
    /// cuts them (at `\n`, dropping the `\r` of a `\r\n`), and only a
    /// `RES ` line is decoded. The body is searched for `RES ` a word at a
    /// time, so the kilobytes of markup around the lines are never split
    /// into lines at all; each host and path is a view of the body (a
    /// copy only where a line is not UTF-8 and decodes lossily).
    pub fn parse_manifest(html: &[u8]) -> impl Iterator<Item = Resource<Cow<'_, str>>> {
        let mut from = 0;
        std::iter::from_fn(move || loop {
            let at = scan::find(&html[from..], b"RES ").map(|i| from + i)?;
            let end = scan::find_byte(&html[at..], b'\n').map_or(html.len(), |i| at + i);
            // No line can start before this one ends.
            from = end;
            if at > 0 && html[at - 1] != b'\n' {
                continue;
            }
            let mut line = &html[at + 4..end];
            if end < html.len() {
                line = line.strip_suffix(b"\r").unwrap_or(line);
            }
            let parsed = match String::from_utf8_lossy(line) {
                Cow::Borrowed(fields) => Self::parse_resource(fields).map(|r| r.map(Cow::Borrowed)),
                Cow::Owned(fields) => {
                    Self::parse_resource(&fields).map(|r| r.map(|piece| Cow::Owned(piece.to_string())))
                }
            };
            if parsed.is_some() {
                return parsed;
            }
        })
    }

    /// One manifest line's fields, after its `RES `.
    fn parse_resource(fields: &str) -> Option<Resource<&str>> {
        let mut parts = fields.split(' ');
        let host = parts.next()?;
        let path = parts.next()?;
        let len: usize = parts.next()?.parse().ok()?;
        let first = parts.next()? == "first";
        Some(Resource { host, path, len, first_visit_only: first })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A small page on `example.com`: 4 000 bytes of HTML and one
    /// stylesheet.
    fn small_page() -> PageSpec {
        let style = Resource {
            host: "example.com".into(),
            path: "/style.css".into(),
            len: 2_000,
            first_visit_only: false,
        };
        PageSpec { html_len: 4_000, resources: vec![style] }
    }

    /// What `parse_manifest` reads, owned.
    fn owned(html: &[u8]) -> Vec<Resource> {
        PageSpec::parse_manifest(html).map(|r| r.map(Cow::into_owned)).collect()
    }

    /// `parse_manifest` as it was first written — decode the whole body,
    /// then look at every line — kept as the oracle for the one above.
    fn parse_manifest_whole_body(html: &[u8]) -> Vec<Resource> {
        let text = String::from_utf8_lossy(html);
        text.lines()
            .filter_map(|line| {
                let mut parts = line.strip_prefix("RES ")?.split(' ');
                let host = parts.next()?.to_string();
                let path = parts.next()?.to_string();
                let len: usize = parts.next()?.parse().ok()?;
                let first = parts.next()? == "first";
                Some(Resource { host, path, len, first_visit_only: first })
            })
            .collect()
    }

    proptest! {
        /// Bodies stitched from manifest lines (whole, cut short, with
        /// arbitrary bytes where a field should be), every kind of line
        /// ending, and arbitrary bytes — invalid UTF-8 inside and outside
        /// `RES ` lines — parse as the whole-body oracle parses them, and
        /// so does every prefix of one: a body may stop mid-line, after a
        /// bare `\r`, or inside a multi-byte character.
        #[test]
        fn parse_manifest_matches_the_whole_body_oracle(
            pieces in prop::collection::vec((0u8..10, prop::collection::vec(any::<u8>(), 0..12)), 0..24),
        ) {
            let mut html = Vec::new();
            for (kind, noise) in pieces {
                match kind {
                    0 => html.extend_from_slice(b"RES cdn.example /a.css 120 first"),
                    1 => html.extend_from_slice(b"RES cdn.example /b.js 7 always"),
                    2 => html.extend_from_slice(b"RES "),
                    3 => html.extend_from_slice(b" 42 first"),
                    4 => html.push(b' '),
                    5 => html.push(b'\n'),
                    6 => html.extend_from_slice(b"\r\n"),
                    7 => html.push(b'\r'),
                    _ => html.extend_from_slice(&noise),
                }
            }
            for end in 0..=html.len() {
                let body = &html[..end];
                prop_assert_eq!(owned(body), parse_manifest_whole_body(body));
            }
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let page = PageSpec::google_scholar();
        let html = page.render_html();
        assert_eq!(html.len(), page.html_len);
        assert_eq!(owned(&html), page.resources);
        // Read where they lie: nothing is copied out of a UTF-8 body.
        assert!(PageSpec::parse_manifest(&html).all(|r| matches!((r.host, r.path), (Cow::Borrowed(_), Cow::Borrowed(_)))));
    }

    #[test]
    fn render_html_writes_what_format_rendered_into_one_allocation() {
        let mut short = PageSpec::google_scholar();
        short.html_len = 60; // shorter than its own manifest
        for page in [PageSpec::google_scholar(), small_page(), short] {
            let mut want = String::from("<!doctype html><!-- scholar page -->\n");
            for r in &page.resources {
                let visits = if r.first_visit_only { "first" } else { "always" };
                want += &format!("RES {} {} {} {}\n", r.host, r.path, r.len, visits);
            }
            while want.len() < page.html_len {
                want += "<p>scholarly padding content for realistic sizing</p>\n";
            }
            want.truncate(page.html_len);
            let html = page.render_html();
            assert_eq!(html, want.as_bytes());
            let room = 40 + page.resources.iter().map(|r| r.host.len() + r.path.len() + 40).sum::<usize>();
            assert!(html.capacity() <= room.max(page.html_len + 54), "sized once: {}", html.capacity());
        }
    }

    #[test]
    fn scholar_page_is_about_19_kb() {
        // The paper's direct-access baseline traffic is ~19 KB.
        let page = PageSpec::google_scholar();
        let total = page.html_len + page.resources.iter().map(|r| r.len).sum::<usize>();
        assert!((17_000..=20_000).contains(&total), "total {total}");
    }

    #[test]
    fn account_resource_is_first_visit_only() {
        let page = PageSpec::google_scholar();
        let firsts: Vec<_> = page.resources.iter().filter(|r| r.first_visit_only).collect();
        assert_eq!(firsts.len(), 1);
        assert_eq!(firsts[0].host, "accounts.google.com");
    }

    #[test]
    fn manifest_ignores_padding() {
        let page = small_page();
        let html = page.render_html();
        assert_eq!(PageSpec::parse_manifest(&html).count(), 1);
    }
}
