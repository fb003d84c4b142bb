//! The wire codec: the one encoding of every framed lab message.
//!
//! Every frame that crosses a [`Transport`](crate::rpc::Transport)
//! carries one of four message types ([`RpcRequest`]/[`RpcResponse`]
//! for the RPC substrate, [`WireFrame`]/[`ReplyFrame`] for the lab
//! service) in the compact binary form of this module. It reuses the
//! segment store's proven primitive codecs: LEB128 varints for ids and
//! counts, the dense [`CommandType::token_id`] dictionary for command
//! mnemonics, the tagged binary [`Value`] codec for arguments, and a
//! CRC32 trailer so corruption is caught at the frame boundary. Control frames (`Hello`, `BeginRun`, `EndRun`,
//! `Bye`, …) use the same encoding as the `Issue` hot path; there is
//! no second codec and nothing to negotiate. JSON stays the format of
//! documents (scenarios, exports, checkpoints), never of frames. See
//! DESIGN.md §15.
//!
//! # Frame layout
//!
//! ```text
//! [0xB1][msg tag][body…][crc32 LE]
//!   │      │       │        └ CRC32 over everything before the trailer
//!   │      │       └ message-specific body (varints / tagged values)
//!   │      └ 1=RpcRequest 2=RpcResponse 3=WireFrame 4=ReplyFrame
//!   └ version tag
//! ```
//!
//! Truncated input, a bad CRC, a wrong version or message tag, or
//! trailing garbage all decode to `Err`, never a panic. The transport
//! layers skip such a frame and let retry plus idempotency recover.
//!
//! # Examples
//!
//! ```
//! use rad_core::{Command, CommandType, Value};
//! use rad_middlebox::rpc::RpcRequest;
//! use rad_middlebox::wire;
//!
//! let command = Command::new(CommandType::Move, vec![Value::Float(0.5)]);
//! let mut buf = Vec::new();
//! wire::encode_rpc_request(&mut buf, 7, &command);
//! assert_eq!(buf[0], wire::BINARY_TAG);
//! let back = wire::decode_rpc_request(&buf)?;
//! assert_eq!(back, RpcRequest { id: 7, command });
//! # Ok::<(), String>(())
//! ```

use rad_core::{AnomalyCause, Command, CommandType, Label, ProcedureKind, Value};
use rad_store::segment::codec::{read_value, write_str, write_value, write_varint, ByteReader};
use rad_store::wal::crc32;

use crate::rpc::{RpcRequest, RpcResponse};
use crate::server::{ReplyFrame, WireFrame, WireReply, WireRequest};

/// Version tag opening every frame payload.
pub const BINARY_TAG: u8 = 0xB1;

/// The frame encoding. Binary is the only one; this type exists only
/// because `radbench/src/lab.rs` names it when it calls
/// `RemoteSession::connect_with`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCodecKind {
    /// The binary frame codec of this module.
    Binary,
}

/// Message tags (second payload byte).
mod msg {
    pub const RPC_REQUEST: u8 = 1;
    pub const RPC_RESPONSE: u8 = 2;
    pub const WIRE_FRAME: u8 = 3;
    pub const REPLY_FRAME: u8 = 4;
}

fn begin(out: &mut Vec<u8>, tag: u8) -> usize {
    let start = out.len();
    out.push(BINARY_TAG);
    out.push(tag);
    start
}

fn finish(out: &mut Vec<u8>, start: usize) {
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn write_command(out: &mut Vec<u8>, command: &Command) {
    write_varint(out, command.command_type().token_id() as u64);
    write_varint(out, command.args().len() as u64);
    for arg in command.args() {
        write_value(out, arg);
    }
}

fn read_command(r: &mut ByteReader<'_>, budget: usize) -> Result<Command, String> {
    let token = r.varint()? as usize;
    let command_type = CommandType::from_token_id(token)
        .ok_or_else(|| format!("unknown command token {token}"))?;
    let argc = r.varint()? as usize;
    if argc > budget {
        return Err(format!("implausible argument count {argc}"));
    }
    let mut args = Vec::with_capacity(argc);
    for _ in 0..argc {
        args.push(read_value(r)?);
    }
    Ok(Command::new(command_type, args))
}

const fn label_byte(label: Label) -> u8 {
    match label {
        Label::Benign => 0,
        Label::Unknown => 1,
        Label::Anomalous(AnomalyCause::QuantosDoorVsN9) => 2,
        Label::Anomalous(AnomalyCause::QuantosDoorVsUr3e) => 3,
        Label::Anomalous(AnomalyCause::ArmVsTecan) => 4,
    }
}

fn label_from_byte(b: u8) -> Result<Label, String> {
    Ok(match b {
        0 => Label::Benign,
        1 => Label::Unknown,
        2 => Label::Anomalous(AnomalyCause::QuantosDoorVsN9),
        3 => Label::Anomalous(AnomalyCause::QuantosDoorVsUr3e),
        4 => Label::Anomalous(AnomalyCause::ArmVsTecan),
        other => return Err(format!("unknown label byte {other}")),
    })
}

const fn procedure_byte(kind: ProcedureKind) -> u8 {
    match kind {
        ProcedureKind::AutomatedSolubilityN9 => 0,
        ProcedureKind::AutomatedSolubilityN9Ur3e => 1,
        ProcedureKind::CrystalSolubility => 2,
        ProcedureKind::JoystickMovements => 3,
        ProcedureKind::VelocitySweep => 4,
        ProcedureKind::PayloadSweep => 5,
        ProcedureKind::Unknown => 6,
    }
}

fn procedure_from_byte(b: u8) -> Result<ProcedureKind, String> {
    Ok(match b {
        0 => ProcedureKind::AutomatedSolubilityN9,
        1 => ProcedureKind::AutomatedSolubilityN9Ur3e,
        2 => ProcedureKind::CrystalSolubility,
        3 => ProcedureKind::JoystickMovements,
        4 => ProcedureKind::VelocitySweep,
        5 => ProcedureKind::PayloadSweep,
        6 => ProcedureKind::Unknown,
        other => return Err(format!("unknown procedure byte {other}")),
    })
}

/// Appends one binary [`RpcRequest`] payload. Borrows the command —
/// this is the allocation-free replacement for cloning it into an
/// owned request just to serialize.
pub fn encode_rpc_request(out: &mut Vec<u8>, id: u64, command: &Command) {
    let start = begin(out, msg::RPC_REQUEST);
    write_varint(out, id);
    write_command(out, command);
    finish(out, start);
}

/// Appends one binary [`RpcResponse`] payload.
pub fn encode_rpc_response(out: &mut Vec<u8>, id: u64, result: &Result<Value, String>) {
    let start = begin(out, msg::RPC_RESPONSE);
    write_varint(out, id);
    match result {
        Ok(value) => {
            out.push(0);
            write_value(out, value);
        }
        Err(message) => {
            out.push(1);
            write_str(out, message);
        }
    }
    finish(out, start);
}

/// Appends one binary [`WireFrame`] payload.
pub fn encode_wire_frame(out: &mut Vec<u8>, id: u64, body: &WireRequest) {
    match body {
        WireRequest::Issue {
            deadline_ms,
            command,
        } => encode_issue_frame(out, id, *deadline_ms, command),
        other => {
            let start = begin(out, msg::WIRE_FRAME);
            write_varint(out, id);
            match other {
                WireRequest::Hello { tenant } => {
                    out.push(0);
                    write_str(out, tenant);
                }
                WireRequest::Issue { .. } => unreachable!("handled above"),
                WireRequest::BeginRun {
                    run,
                    procedure,
                    label,
                } => {
                    out.push(2);
                    write_varint(out, u64::from(*run));
                    out.push(procedure_byte(*procedure));
                    out.push(label_byte(*label));
                }
                WireRequest::EndRun => out.push(3),
                WireRequest::Annotate { note } => {
                    out.push(4);
                    write_str(out, note);
                }
                WireRequest::Advance { micros } => {
                    out.push(5);
                    write_varint(out, *micros);
                }
                WireRequest::Sync => out.push(6),
                WireRequest::Bye => out.push(7),
            }
            finish(out, start);
        }
    }
}

/// Appends one binary `Issue` [`WireFrame`] payload with a *borrowed*
/// command — the pipelined client's hot path, which never builds an
/// owned [`WireRequest`].
pub fn encode_issue_frame(out: &mut Vec<u8>, id: u64, deadline_ms: u64, command: &Command) {
    let start = begin(out, msg::WIRE_FRAME);
    write_varint(out, id);
    out.push(1);
    write_varint(out, deadline_ms);
    write_command(out, command);
    finish(out, start);
}

/// Appends one binary [`ReplyFrame`] payload.
pub fn encode_reply_frame(out: &mut Vec<u8>, id: u64, body: &WireReply) {
    let start = begin(out, msg::REPLY_FRAME);
    write_varint(out, id);
    match body {
        WireReply::Welcome {
            session,
            issues_done,
        } => {
            out.push(0);
            write_varint(out, *session);
            write_varint(out, *issues_done);
        }
        WireReply::Done { value, fault } => {
            out.push(1);
            let flags = u8::from(value.is_some()) | (u8::from(fault.is_some()) << 1);
            out.push(flags);
            if let Some(value) = value {
                write_value(out, value);
            }
            if let Some(fault) = fault {
                write_str(out, fault);
            }
        }
        WireReply::Accepted => out.push(2),
        WireReply::Expired => out.push(3),
        WireReply::Rejected { reason } => {
            out.push(4);
            write_str(out, reason);
        }
        WireReply::Failed { message } => {
            out.push(5);
            write_str(out, message);
        }
        WireReply::Goodbye { issues_done } => {
            out.push(6);
            write_varint(out, *issues_done);
        }
    }
    finish(out, start);
}

/// Validates the tag + CRC envelope and returns the message body.
fn open(frame: &[u8], expect_tag: u8) -> Result<&[u8], String> {
    if frame.len() < 6 {
        return Err(format!(
            "binary frame of {} bytes is too short",
            frame.len()
        ));
    }
    let (body, trailer) = frame.split_at(frame.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let actual = crc32(body);
    if stored != actual {
        return Err(format!(
            "frame crc mismatch: stored {stored:08x}, computed {actual:08x}"
        ));
    }
    if body[0] != BINARY_TAG {
        return Err(format!("unknown version tag {:#04x}", body[0]));
    }
    if body[1] != expect_tag {
        return Err(format!(
            "expected message tag {expect_tag}, got {}",
            body[1]
        ));
    }
    Ok(&body[2..])
}

/// Decodes an [`RpcRequest`].
///
/// # Errors
///
/// Returns a message on truncation, CRC mismatch, unknown tags or
/// trailing bytes; callers skip the frame.
pub fn decode_rpc_request(frame: &[u8]) -> Result<RpcRequest, String> {
    let body = open(frame, msg::RPC_REQUEST)?;
    let mut r = ByteReader::new(body);
    let id = r.varint()?;
    let command = read_command(&mut r, body.len())?;
    r.expect_empty()?;
    Ok(RpcRequest { id, command })
}

/// Decodes an [`RpcResponse`].
///
/// # Errors
///
/// As [`decode_rpc_request`].
pub fn decode_rpc_response(frame: &[u8]) -> Result<RpcResponse, String> {
    let body = open(frame, msg::RPC_RESPONSE)?;
    let mut r = ByteReader::new(body);
    let id = r.varint()?;
    let result = match r.u8()? {
        0 => Ok(read_value(&mut r)?),
        1 => Err(r.str()?),
        other => return Err(format!("unknown result byte {other}")),
    };
    r.expect_empty()?;
    Ok(RpcResponse { id, result })
}

/// Decodes a [`WireFrame`].
///
/// # Errors
///
/// As [`decode_rpc_request`].
pub fn decode_wire_frame(frame: &[u8]) -> Result<WireFrame, String> {
    let body = open(frame, msg::WIRE_FRAME)?;
    let mut r = ByteReader::new(body);
    let id = r.varint()?;
    let request = match r.u8()? {
        0 => WireRequest::Hello { tenant: r.str()? },
        1 => WireRequest::Issue {
            deadline_ms: r.varint()?,
            command: read_command(&mut r, body.len())?,
        },
        2 => {
            let run = u32::try_from(r.varint()?).map_err(|_| "run id overflows u32")?;
            WireRequest::BeginRun {
                run,
                procedure: procedure_from_byte(r.u8()?)?,
                label: label_from_byte(r.u8()?)?,
            }
        }
        3 => WireRequest::EndRun,
        4 => WireRequest::Annotate { note: r.str()? },
        5 => WireRequest::Advance {
            micros: r.varint()?,
        },
        6 => WireRequest::Sync,
        7 => WireRequest::Bye,
        other => return Err(format!("unknown request byte {other}")),
    };
    r.expect_empty()?;
    Ok(WireFrame { id, body: request })
}

/// Decodes a [`ReplyFrame`].
///
/// # Errors
///
/// As [`decode_rpc_request`].
pub fn decode_reply_frame(frame: &[u8]) -> Result<ReplyFrame, String> {
    let body = open(frame, msg::REPLY_FRAME)?;
    let mut r = ByteReader::new(body);
    let id = r.varint()?;
    let reply = match r.u8()? {
        0 => WireReply::Welcome {
            session: r.varint()?,
            issues_done: r.varint()?,
        },
        1 => {
            let flags = r.u8()?;
            if flags > 3 {
                return Err(format!("unknown done flags {flags:02x}"));
            }
            let value = if flags & 1 != 0 {
                Some(read_value(&mut r)?)
            } else {
                None
            };
            let fault = if flags & 2 != 0 { Some(r.str()?) } else { None };
            WireReply::Done { value, fault }
        }
        2 => WireReply::Accepted,
        3 => WireReply::Expired,
        4 => WireReply::Rejected { reason: r.str()? },
        5 => WireReply::Failed { message: r.str()? },
        6 => WireReply::Goodbye {
            issues_done: r.varint()?,
        },
        other => return Err(format!("unknown reply byte {other}")),
    };
    r.expect_empty()?;
    Ok(ReplyFrame { id, body: reply })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rad_core::{Command, CommandType};

    fn sample_command() -> Command {
        Command::new(
            CommandType::Move,
            vec![
                Value::Float(0.25),
                Value::Str("solid=CSTI".into()),
                Value::List(vec![Value::Int(-3), Value::Unit]),
            ],
        )
    }

    #[test]
    fn rpc_request_round_trips_and_matches_owned_form() {
        let command = sample_command();
        let mut buf = Vec::new();
        encode_rpc_request(&mut buf, 42, &command);
        let back = decode_rpc_request(&buf).unwrap();
        assert_eq!(back, RpcRequest { id: 42, command });
    }

    #[test]
    fn rpc_response_round_trips_both_arms() {
        for result in [Ok(Value::Joints([0.0; 6])), Err("device fault".to_owned())] {
            let mut buf = Vec::new();
            encode_rpc_response(&mut buf, 7, &result);
            let back = decode_rpc_response(&buf).unwrap();
            assert_eq!(back, RpcResponse { id: 7, result });
        }
    }

    #[test]
    fn every_wire_request_round_trips() {
        let requests = vec![
            WireRequest::Hello {
                tenant: "alice".into(),
            },
            WireRequest::Issue {
                deadline_ms: 10_000,
                command: sample_command(),
            },
            WireRequest::BeginRun {
                run: 16,
                procedure: ProcedureKind::AutomatedSolubilityN9,
                label: Label::Anomalous(AnomalyCause::QuantosDoorVsN9),
            },
            WireRequest::EndRun,
            WireRequest::Annotate {
                note: "mid-run".into(),
            },
            WireRequest::Advance { micros: 1_000_000 },
            WireRequest::Sync,
            WireRequest::Bye,
        ];
        for (i, body) in requests.into_iter().enumerate() {
            let mut buf = Vec::new();
            encode_wire_frame(&mut buf, i as u64, &body);
            let back = decode_wire_frame(&buf).unwrap();
            assert_eq!(back, WireFrame { id: i as u64, body });
        }
    }

    #[test]
    fn every_wire_reply_round_trips() {
        let replies = vec![
            WireReply::Welcome {
                session: 9,
                issues_done: 120,
            },
            WireReply::Done {
                value: Some(Value::Unit),
                fault: None,
            },
            WireReply::Done {
                value: None,
                fault: Some("relay fault".into()),
            },
            WireReply::Done {
                value: None,
                fault: None,
            },
            WireReply::Accepted,
            WireReply::Expired,
            WireReply::Rejected {
                reason: "busy".into(),
            },
            WireReply::Failed {
                message: "no hello".into(),
            },
            WireReply::Goodbye { issues_done: 3 },
        ];
        for (i, body) in replies.into_iter().enumerate() {
            let mut buf = Vec::new();
            encode_reply_frame(&mut buf, i as u64, &body);
            let back = decode_reply_frame(&buf).unwrap();
            assert_eq!(back, ReplyFrame { id: i as u64, body });
        }
    }

    #[test]
    fn borrowed_issue_encoding_matches_owned_wire_frame() {
        let command = sample_command();
        let owned = WireRequest::Issue {
            deadline_ms: 250,
            command: command.clone(),
        };
        let mut via_owned = Vec::new();
        encode_wire_frame(&mut via_owned, 5, &owned);
        let mut via_ref = Vec::new();
        encode_issue_frame(&mut via_ref, 5, 250, &command);
        assert_eq!(via_owned, via_ref);
    }

    #[test]
    fn corruption_and_truncation_are_rejected() {
        let mut buf = Vec::new();
        encode_rpc_request(&mut buf, 1, &sample_command());
        for cut in 0..buf.len() {
            assert!(decode_rpc_request(&buf[..cut]).is_err(), "cut at {cut}");
        }
        for bit in 0..(buf.len() * 8) {
            let mut flipped = buf.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_rpc_request(&flipped).is_err(), "bit {bit}");
        }
    }

    #[test]
    fn wrong_message_tag_is_rejected() {
        let mut buf = Vec::new();
        encode_rpc_request(&mut buf, 1, &sample_command());
        assert!(decode_rpc_response(&buf).is_err());
        assert!(decode_wire_frame(&buf).is_err());
        // A wrong version tag is rejected even under a valid CRC.
        let body_len = buf.len() - 4;
        buf[0] = b'{';
        let crc = crc32(&buf[..body_len]);
        buf[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert!(decode_rpc_request(&buf).is_err());
    }
}
