//! Incremental NDJSON framing for every transport.
//!
//! The reactor's sockets and the stdin loop feed whatever bytes they
//! read to a [`LineDecoder`]; the decoder buffers until a `\n`
//! completes a frame and then yields it.  Framing never assumes anything about chunk
//! boundaries: a frame may arrive one byte at a time, a multi-byte
//! UTF-8 character may be split across reads, and both are reassembled
//! before decoding.
//!
//! Three malformations are handled *as protocol errors*, not
//! disconnects, mirroring the depth guard in `ujam-trace`'s JSON parser
//! (`MAX_DEPTH`): a line longer than [`MAX_LINE_BYTES`] is discarded as
//! it streams in (the buffer never grows past the limit) and reported
//! once as [`Frame::Oversized`] when its terminating newline finally
//! arrives; a completed line that is not valid UTF-8 is reported as
//! [`Frame::InvalidUtf8`]; and blank lines (including bare `\r\n`)
//! come out as [`Frame::Empty`] for the caller to skip.  A trailing
//! `\r` before the `\n` is stripped, so CRLF clients interoperate.

use std::collections::VecDeque;

/// The documented hard cap on one NDJSON frame, in bytes (1 MiB).
///
/// Nothing the protocol carries comes close: the largest inline Fortran
/// sources are a few KiB.  The cap is the slow-loris/memory guard — a
/// client streaming an endless line costs the server a bounded buffer,
/// and the line is answered with a structured `frame_too_long` error
/// instead of an allocation.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete, non-empty, UTF-8 line (newline and any trailing
    /// `\r` stripped).
    Line(String),
    /// A blank line (empty, or CRLF only).  Callers skip these.
    Empty,
    /// A line that exceeded the decoder's limit; `len` is the size of
    /// the discarded line in bytes (terminator excluded).
    Oversized {
        /// Bytes the oversized line held, newline excluded.
        len: usize,
    },
    /// A complete line that was not valid UTF-8.
    InvalidUtf8,
}

/// An incremental, bounded NDJSON line decoder.
///
/// Feed raw bytes with [`push`](LineDecoder::push) (any chunking), pull
/// completed frames with [`next_frame`](LineDecoder::next_frame).  On
/// EOF call [`finish`](LineDecoder::finish) so a final unterminated
/// line is still delivered.  The reactor and the stdin loop
/// (`Server::run`) both frame with it.
#[derive(Debug)]
pub struct LineDecoder {
    buf: Vec<u8>,
    ready: VecDeque<Frame>,
    max: usize,
    /// Inside an oversized line: bytes are counted and dropped until
    /// the newline, then one `Oversized` frame is emitted.
    discarding: bool,
    discarded: usize,
}

impl Default for LineDecoder {
    fn default() -> LineDecoder {
        LineDecoder::new()
    }
}

impl LineDecoder {
    /// A decoder with the protocol's [`MAX_LINE_BYTES`] limit.
    pub fn new() -> LineDecoder {
        LineDecoder::with_max(MAX_LINE_BYTES)
    }

    /// A decoder with a custom line limit (tests use small ones).
    pub fn with_max(max: usize) -> LineDecoder {
        LineDecoder {
            buf: Vec::new(),
            ready: VecDeque::new(),
            max: max.max(1),
            discarding: false,
            discarded: 0,
        }
    }

    /// Feeds a chunk of raw bytes, completing any number of frames.
    pub fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            if self.discarding {
                if b == b'\n' {
                    self.ready.push_back(Frame::Oversized {
                        len: self.discarded,
                    });
                    self.discarding = false;
                    self.discarded = 0;
                } else {
                    self.discarded += 1;
                }
                continue;
            }
            if b == b'\n' {
                let frame = Self::complete(&mut self.buf);
                self.ready.push_back(frame);
            } else {
                self.buf.push(b);
                if self.buf.len() > self.max {
                    self.discarding = true;
                    self.discarded = self.buf.len();
                    self.buf.clear();
                    self.buf.shrink_to(4096);
                }
            }
        }
    }

    /// Flushes a final unterminated line at EOF (no-op when the tail is
    /// empty).  An oversized tail is still reported as oversized.
    pub fn finish(&mut self) {
        if self.discarding {
            self.ready.push_back(Frame::Oversized {
                len: self.discarded,
            });
            self.discarding = false;
            self.discarded = 0;
        } else if !self.buf.is_empty() {
            let frame = Self::complete(&mut self.buf);
            self.ready.push_back(frame);
        }
    }

    /// The next completed frame, if any.
    pub fn next_frame(&mut self) -> Option<Frame> {
        self.ready.pop_front()
    }

    /// Whether an incomplete line is sitting in the buffer (a
    /// half-written frame a slow-loris client never terminates).
    pub fn has_partial(&self) -> bool {
        self.discarding || !self.buf.is_empty()
    }

    /// Whether everything fed in has been pulled out: no completed
    /// frames waiting and no partial tail.
    pub fn is_drained(&self) -> bool {
        self.ready.is_empty() && !self.has_partial()
    }

    fn complete(buf: &mut Vec<u8>) -> Frame {
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        let frame = if buf.is_empty() {
            Frame::Empty
        } else {
            match std::str::from_utf8(buf) {
                Ok(s) => Frame::Line(s.to_string()),
                Err(_) => Frame::InvalidUtf8,
            }
        };
        buf.clear();
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(d: &mut LineDecoder) -> Vec<Frame> {
        std::iter::from_fn(|| d.next_frame()).collect()
    }

    #[test]
    fn whole_lines_round_trip() {
        let mut d = LineDecoder::new();
        d.push(b"{\"id\":\"a\"}\n{\"id\":\"b\"}\n");
        assert_eq!(
            drain(&mut d),
            vec![
                Frame::Line("{\"id\":\"a\"}".into()),
                Frame::Line("{\"id\":\"b\"}".into()),
            ]
        );
        assert!(d.is_drained());
    }

    #[test]
    fn byte_at_a_time_reassembles_exactly() {
        let input = "{\"id\":\"r1\",\"kernel\":\"dmxpy1\"}\n{\"id\":\"r2\"}\n";
        let mut d = LineDecoder::new();
        let mut got = Vec::new();
        for &b in input.as_bytes() {
            d.push(std::slice::from_ref(&b));
            got.extend(drain(&mut d));
        }
        assert_eq!(
            got,
            vec![
                Frame::Line("{\"id\":\"r1\",\"kernel\":\"dmxpy1\"}".into()),
                Frame::Line("{\"id\":\"r2\"}".into()),
            ]
        );
    }

    #[test]
    fn split_utf8_across_pushes_decodes() {
        // '∑' is three bytes; split it across three pushes.
        let line = "{\"id\":\"∑\"}\n".as_bytes();
        let mut d = LineDecoder::new();
        let (a, rest) = line.split_at(8); // splits inside the multi-byte char
        let (b, c) = rest.split_at(1);
        d.push(a);
        assert!(d.next_frame().is_none(), "incomplete line yields nothing");
        d.push(b);
        d.push(c);
        assert_eq!(drain(&mut d), vec![Frame::Line("{\"id\":\"∑\"}".into())]);
    }

    #[test]
    fn crlf_is_stripped_and_blank_lines_are_empty_frames() {
        let mut d = LineDecoder::new();
        d.push(b"{\"id\":\"a\"}\r\n\r\n\n{\"id\":\"b\"}\r\n");
        assert_eq!(
            drain(&mut d),
            vec![
                Frame::Line("{\"id\":\"a\"}".into()),
                Frame::Empty,
                Frame::Empty,
                Frame::Line("{\"id\":\"b\"}".into()),
            ]
        );
    }

    #[test]
    fn oversized_lines_are_discarded_not_buffered() {
        let mut d = LineDecoder::with_max(8);
        d.push(b"0123456789abcdef");
        // Already over the limit: the buffer must not be growing.
        assert!(d.has_partial());
        d.push(b"more\n{\"ok\":1}\n");
        assert_eq!(
            drain(&mut d),
            vec![
                Frame::Oversized { len: 20 },
                Frame::Line("{\"ok\":1}".into()),
            ]
        );
        assert!(d.is_drained(), "the stream recovers after the bad frame");
    }

    #[test]
    fn oversized_exact_boundary_is_still_a_line() {
        let mut d = LineDecoder::with_max(4);
        d.push(b"abcd\nabcde\n");
        assert_eq!(
            drain(&mut d),
            vec![Frame::Line("abcd".into()), Frame::Oversized { len: 5 }]
        );
    }

    #[test]
    fn invalid_utf8_is_a_frame_not_a_poisoned_stream() {
        let mut d = LineDecoder::new();
        d.push(b"\xff\xfe\xfd\n{\"id\":\"ok\"}\n");
        assert_eq!(
            drain(&mut d),
            vec![Frame::InvalidUtf8, Frame::Line("{\"id\":\"ok\"}".into())]
        );
    }

    #[test]
    fn finish_flushes_an_unterminated_tail() {
        let mut d = LineDecoder::new();
        d.push(b"{\"id\":\"last\"}");
        assert!(d.next_frame().is_none());
        d.finish();
        assert_eq!(drain(&mut d), vec![Frame::Line("{\"id\":\"last\"}".into())]);
        assert!(d.is_drained());

        // An oversized tail reports as oversized at EOF too.
        let mut d = LineDecoder::with_max(4);
        d.push(b"abcdefgh");
        d.finish();
        assert_eq!(drain(&mut d), vec![Frame::Oversized { len: 8 }]);
    }

    #[test]
    fn carriage_return_only_stripped_at_line_end() {
        let mut d = LineDecoder::new();
        d.push(b"a\rb\r\n");
        assert_eq!(drain(&mut d), vec![Frame::Line("a\rb".into())]);
    }
}
