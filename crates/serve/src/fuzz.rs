//! Seeded malformed-HTTP generation — **test support**, the protocol-level
//! sibling of `bayonet_lang::testgen`.
//!
//! Produces raw request byte strings covering the classic ways clients go
//! wrong on the wire: non-numeric and conflicting `Content-Length`
//! headers, bodies declared beyond the size limit, heads blown past
//! [`crate::MAX_HEAD_BYTES`], pipelined trailing garbage, invalid UTF-8 in
//! JSON bodies, mangled request lines, colon-less headers, torn bodies,
//! and plain binary noise. The server's contract under all of them: a
//! well-formed HTTP error response or a clean close — never a panic, a
//! wedged event loop, or a leaked fd.
//!
//! The generator draws from `testgen`'s [`Lcg`], so a seed fully
//! determines the byte string and every failure reproduces from the seed
//! alone.

use bayonet_lang::testgen::Lcg;

/// A deterministic generator of hostile HTTP request bytes.
///
/// # Examples
///
/// ```
/// use bayonet_serve::fuzz::RequestFuzzGen;
///
/// let bytes = RequestFuzzGen::new(7).generate();
/// // Same seed, same bytes:
/// assert_eq!(bytes, RequestFuzzGen::new(7).generate());
/// ```
pub struct RequestFuzzGen {
    rng: Lcg,
}

impl RequestFuzzGen {
    /// Creates a generator; the seed fully determines the output.
    pub fn new(seed: u64) -> RequestFuzzGen {
        RequestFuzzGen {
            rng: Lcg::new(seed),
        }
    }

    /// `len` bytes of unrestricted binary noise.
    fn noise(&mut self, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| (self.rng.next_u64() & 0xFF) as u8)
            .collect()
    }

    /// A syntactically plausible request line.
    fn request_line(&mut self) -> String {
        const METHODS: [&str; 5] = ["GET", "POST", "PUT", "get", "P\u{0}ST"];
        const PATHS: [&str; 5] = ["/healthz", "/v1/run", "/v1/batch", "/", "/..//x"];
        format!(
            "{} {} HTTP/1.1",
            METHODS[self.rng.below(METHODS.len() as u64) as usize],
            PATHS[self.rng.below(PATHS.len() as u64) as usize],
        )
    }

    /// Generates one request byte string. Shapes rotate through the
    /// malformed-input taxonomy; a few are only *suspicious* (pipelined
    /// trailers, odd methods) so the corpus also exercises the boundary
    /// between reject and accept.
    pub fn generate(&mut self) -> Vec<u8> {
        match self.rng.below(10) {
            // Valid framing, invalid UTF-8 where JSON should be.
            0 => {
                let mut body = br#"{"source":""#.to_vec();
                body.extend((0..8).map(|_| 0xC0u8 | (self.rng.below(64) as u8)));
                body.extend_from_slice(b"\"}");
                let mut req = format!(
                    "POST /v1/run HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                req.extend_from_slice(&body);
                req
            }
            // Content-Length that does not parse (or conflicts).
            1 => {
                const BAD: [&str; 4] = ["banana", "-1", "0x10", "99999999999999999999999999"];
                let value = if self.rng.below(4) == 0 {
                    "5\r\nContent-Length: 7".to_string() // conflicting pair
                } else {
                    BAD[self.rng.below(BAD.len() as u64) as usize].to_string()
                };
                format!(
                    "{}\r\nHost: fuzz\r\nContent-Length: {value}\r\n\r\nhello",
                    self.request_line()
                )
                .into_bytes()
            }
            // Body declared beyond MAX_BODY_BYTES — rejected from the
            // head alone, no body bytes needed.
            2 => format!(
                "POST /v1/run HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n",
                crate::MAX_BODY_BYTES as u64 + 1 + self.rng.below(1 << 20)
            )
            .into_bytes(),
            // Oversized head: one header value blown past MAX_HEAD_BYTES.
            3 => {
                let pad = crate::MAX_HEAD_BYTES + 1 + self.rng.below(16 * 1024) as usize;
                let mut req = format!("{}\r\nX-Pad: ", self.request_line()).into_bytes();
                req.extend(std::iter::repeat_n(b'a', pad));
                req.extend_from_slice(b"\r\n\r\n");
                req
            }
            // A well-formed request with pipelined trailing garbage.
            4 => {
                let mut req = b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n".to_vec();
                let len = 1 + self.rng.below(64) as usize;
                let trailer = self.noise(len);
                req.extend_from_slice(&trailer);
                req
            }
            // Unstructured binary noise.
            5 => {
                let len = 1 + self.rng.below(256) as usize;
                self.noise(len)
            }
            // Mangled request line.
            6 => {
                const LINES: [&str; 5] = [
                    "GET",
                    "GET /healthz",
                    " / HTTP/1.1",
                    "GET\t/healthz\tHTTP/1.1",
                    "HTTP/1.1 200 OK", // a *response* line, rudely
                ];
                format!(
                    "{}\r\nHost: fuzz\r\n\r\n",
                    LINES[self.rng.below(LINES.len() as u64) as usize]
                )
                .into_bytes()
            }
            // Header lines without a colon (or with an empty name).
            7 => {
                const HEADERS: [&str; 4] =
                    ["NoColonHere", ": empty-name", "Tab\tSeparated value", "="];
                format!(
                    "{}\r\n{}\r\nHost: fuzz\r\n\r\n",
                    self.request_line(),
                    HEADERS[self.rng.below(HEADERS.len() as u64) as usize]
                )
                .into_bytes()
            }
            // Torn body: head promises more bytes than will ever arrive.
            8 => {
                let declared = 64 + self.rng.below(512);
                let sent = self.rng.below(32) as usize;
                let mut req = format!(
                    "POST /v1/run HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {declared}\r\n\r\n"
                )
                .into_bytes();
                req.extend(std::iter::repeat_n(b'{', sent));
                req
            }
            // Huge request line (path far past any sane length).
            _ => {
                let mut req = b"GET /".to_vec();
                req.extend(std::iter::repeat_n(
                    b'z',
                    crate::MAX_HEAD_BYTES + self.rng.below(8192) as usize,
                ));
                req.extend_from_slice(b" HTTP/1.1\r\nHost: fuzz\r\n\r\n");
                req
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in [0, 1, 7, 999, u64::MAX] {
            assert_eq!(
                RequestFuzzGen::new(seed).generate(),
                RequestFuzzGen::new(seed).generate()
            );
        }
    }

    #[test]
    fn corpus_covers_every_shape() {
        let mut shapes = std::collections::HashSet::new();
        for seed in 0..100 {
            let mut gen = RequestFuzzGen::new(seed);
            shapes.insert(gen.rng.below(10));
        }
        assert_eq!(shapes.len(), 10, "seeds 0..100 miss shapes: {shapes:?}");
    }
}
