(* Tests for the Legion data model and its binary codec. *)

module Value = Legion_wire.Value
module Codec = Legion_wire.Codec

let value_t : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

(* A sized generator of arbitrary values for the round-trip properties. *)
let value_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let scalar =
            oneof
              [
                return Value.Unit;
                map (fun b -> Value.Bool b) bool;
                map (fun i -> Value.Int i) int;
                map (fun i -> Value.I64 i) int64;
                (* NaN breaks equality; generate finite floats. *)
                map (fun f -> Value.Float f) (float_bound_exclusive 1e12);
                map (fun s -> Value.Str s) (string_size (0 -- 12));
                map (fun s -> Value.Blob s) (string_size (0 -- 12));
              ]
          in
          if n <= 1 then scalar
          else
            frequency
              [
                (3, scalar);
                (1, map (fun vs -> Value.List vs) (list_size (0 -- 4) (self (n / 2))));
                ( 1,
                  map
                    (fun vs ->
                      Value.Record
                        (List.mapi (fun i v -> (Printf.sprintf "f%d" i, v)) vs))
                    (list_size (0 -- 4) (self (n / 2))) );
              ])
        (min n 12))

let arbitrary_value = QCheck.make ~print:Value.to_string value_gen

let roundtrip =
  QCheck.Test.make ~name:"decode (encode v) = v" ~count:500 arbitrary_value
    (fun v ->
      match Codec.decode (Codec.encode v) with
      | Ok v' -> Value.equal v v'
      | Error _ -> false)

let size_matches =
  QCheck.Test.make ~name:"size_bytes = |encode v|" ~count:500 arbitrary_value
    (fun v -> Value.size_bytes v = String.length (Codec.encode v))

let decode_never_raises =
  QCheck.Test.make ~name:"decode of garbage never raises" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      match Codec.decode s with Ok _ | Error _ -> true)

(* Mutation fuzz: flip one byte of a valid encoding — decode must fail
   cleanly or succeed on a different value, never raise. *)
let decode_mutation_robust =
  QCheck.Test.make ~name:"decode survives single-byte corruption" ~count:500
    QCheck.(triple arbitrary_value small_nat (int_bound 255))
    (fun (v, pos, byte) ->
      let enc = Bytes.of_string (Codec.encode v) in
      if Bytes.length enc = 0 then true
      else begin
        let pos = pos mod Bytes.length enc in
        Bytes.set enc pos (Char.chr byte);
        match Codec.decode (Bytes.to_string enc) with
        | Ok _ | Error _ -> true
      end)

let pp_total =
  QCheck.Test.make ~name:"pp never raises" ~count:300 arbitrary_value
    (fun v -> String.length (Value.to_string v) >= 0)

let compare_consistent_with_equal =
  QCheck.Test.make ~name:"compare = 0 iff equal" ~count:300
    QCheck.(pair arbitrary_value arbitrary_value)
    (fun (a, b) -> Value.equal a b = (Value.compare a b = 0))

let test_scalar_roundtrips () =
  List.iter
    (fun v ->
      match Codec.decode (Codec.encode v) with
      | Ok v' -> Alcotest.check value_t "roundtrip" v v'
      | Error e -> Alcotest.failf "decode failed: %s" e)
    [
      Value.Unit;
      Value.Bool true;
      Value.Bool false;
      Value.Int 0;
      Value.Int (-1);
      Value.Int max_int;
      Value.Int min_int;
      Value.I64 Int64.max_int;
      Value.I64 Int64.min_int;
      Value.Float 0.0;
      Value.Float (-3.25);
      Value.Float infinity;
      Value.Str "";
      Value.Str "héllo";
      Value.Blob (String.init 256 Char.chr);
      Value.List [];
      Value.Record [];
      Value.Record [ ("a", Value.List [ Value.Int 1; Value.Str "x" ]) ];
    ]

let test_truncated_fails () =
  let enc = Codec.encode (Value.Str "hello world") in
  for cut = 0 to String.length enc - 1 do
    match Codec.decode (String.sub enc 0 cut) with
    | Ok _ -> Alcotest.failf "truncation at %d decoded" cut
    | Error _ -> ()
  done

let test_trailing_fails () =
  let enc = Codec.encode Value.Unit ^ "x" in
  match Codec.decode enc with
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error msg ->
      Alcotest.(check bool) "mentions trailing" true
        (String.length msg > 0)

let test_unknown_tag_fails () =
  match Codec.decode "\xff" with
  | Ok _ -> Alcotest.fail "unknown tag accepted"
  | Error _ -> ()

let test_deep_nesting_rejected () =
  (* A crafted buffer of 100k nested list headers must fail cleanly,
     not blow the stack. *)
  let buf = Buffer.create 600_000 in
  for _ = 1 to 100_000 do
    Buffer.add_string buf "\x07\x00\x00\x00\x01"
  done;
  Buffer.add_char buf '\x00';
  (match Codec.decode (Buffer.contents buf) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "absurd nesting accepted");
  (* Moderate nesting still decodes. *)
  let rec nest n v = if n = 0 then v else nest (n - 1) (Value.List [ v ]) in
  let v = nest 100 Value.Unit in
  match Codec.decode (Codec.encode v) with
  | Ok v' -> Alcotest.(check bool) "100 levels ok" true (Value.equal v v')
  | Error e -> Alcotest.failf "100 levels rejected: %s" e

let test_record_duplicate_rejected () =
  Alcotest.check_raises "duplicate field"
    (Invalid_argument "Value.record: duplicate field names") (fun () ->
      ignore (Value.record [ ("a", Value.Unit); ("a", Value.Int 1) ]))

let test_accessors () =
  Alcotest.(check bool) "to_int ok" true (Value.to_int (Value.Int 3) = Ok 3);
  Alcotest.(check bool) "to_int wrong" true
    (Result.is_error (Value.to_int Value.Unit));
  Alcotest.(check bool) "field ok" true
    (Value.field (Value.Record [ ("x", Value.Int 1) ]) "x" = Ok (Value.Int 1));
  Alcotest.(check bool) "field missing" true
    (Result.is_error (Value.field (Value.Record []) "x"));
  Alcotest.(check bool) "field on non-record" true
    (Result.is_error (Value.field Value.Unit "x"));
  Alcotest.(check bool) "to_list" true
    (Value.to_list Value.to_int (Value.List [ Value.Int 1; Value.Int 2 ])
    = Ok [ 1; 2 ]);
  Alcotest.(check bool) "to_list inner failure" true
    (Result.is_error (Value.to_list Value.to_int (Value.List [ Value.Unit ])));
  Alcotest.(check bool) "option none" true
    (Value.to_option Value.to_int (Value.List []) = Ok None);
  Alcotest.(check bool) "option some" true
    (Value.to_option Value.to_int (Value.List [ Value.Int 5 ]) = Ok (Some 5))

let test_of_option_roundtrip () =
  let v = Value.of_option Value.of_int (Some 3) in
  Alcotest.(check bool) "some" true (Value.to_option Value.to_int v = Ok (Some 3));
  let v = Value.of_option Value.of_int None in
  Alcotest.(check bool) "none" true (Value.to_option Value.to_int v = Ok None)

let test_depth () =
  Alcotest.(check int) "scalar" 1 (Value.depth Value.Unit);
  Alcotest.(check int) "nested" 3
    (Value.depth (Value.List [ Value.Record [ ("a", Value.Int 1) ] ]))

(* --- the error taxonomy: every variant survives the wire --- *)

module Err = Legion_rt.Err

let err_t : Err.t Alcotest.testable =
  Alcotest.testable (fun ppf e -> Err.pp ppf e) Err.equal

(* A generator covering the ENTIRE taxonomy — adding a variant without
   extending this generator is a compile error only if the match below
   is kept total, so it enumerates constructors explicitly. *)
let err_gen : Err.t QCheck.Gen.t =
  let open QCheck.Gen in
  let s = string_size (0 -- 16) in
  (* retry hints travel as Float; keep them finite and exact. *)
  let ra = map (fun i -> float_of_int i /. 8.0) (int_bound 800) in
  oneof
    [
      return Err.No_such_object;
      map (fun d -> Err.No_such_method d) s;
      map (fun d -> Err.Refused d) s;
      map (fun d -> Err.Bad_args d) s;
      map (fun d -> Err.Not_bound d) s;
      return Err.Timeout;
      map (fun d -> Err.Unreachable d) s;
      return Err.Stale_epoch;
      map (fun r -> Err.Overloaded { retry_after = r }) ra;
      map3
        (fun h n e -> Err.No_quorum { have = h; need = n; epoch = e })
        (int_bound 9) (int_bound 9) (int_bound 99);
      map2
        (fun h r -> Err.Txn_locked { holder = h; retry_after = r })
        s ra;
      map (fun x -> Err.Txn_aborted { txn = x }) s;
      map2
        (fun t r -> Err.Quota_exceeded { tenant = t; retry_after = r })
        s ra;
      map2 (fun t d -> Err.Denied { tenant = t; reason = d }) s s;
      map (fun d -> Err.Internal d) s;
    ]

(* --- checksummed envelope (CRC-32 framing) --- *)

module Envelope = Legion_wire.Envelope

let envelope_roundtrip =
  QCheck.Test.make ~name:"unseal (seal v) = Ok v" ~count:500 arbitrary_value
    (fun v ->
      match Envelope.unseal (Envelope.seal v) with
      | Ok v' -> Value.equal v v'
      | Error _ -> false)

(* The integrity guarantee behind the corruption fault: ANY single-byte
   change — header or body — must be rejected, fail-closed, without an
   exception. (CRC-32 detects all single-byte errors; a flip in the
   stored checksum itself just mismatches the recomputed one.) *)
let envelope_rejects_mutation =
  QCheck.Test.make ~name:"unseal rejects any single-byte mutation" ~count:500
    QCheck.(triple arbitrary_value small_nat (int_bound 255))
    (fun (v, pos, byte) ->
      let sealed = Bytes.of_string (Envelope.seal v) in
      let pos = pos mod Bytes.length sealed in
      if Bytes.get sealed pos = Char.chr byte then true
      else begin
        Bytes.set sealed pos (Char.chr byte);
        match Envelope.unseal (Bytes.to_string sealed) with
        | Error _ -> true
        | Ok _ -> false
      end)

let envelope_rejects_truncation =
  QCheck.Test.make ~name:"unseal rejects any truncation" ~count:500
    QCheck.(pair arbitrary_value small_nat)
    (fun (v, cut) ->
      let sealed = Envelope.seal v in
      let keep = cut mod String.length sealed in
      match Envelope.unseal (String.sub sealed 0 keep) with
      | Error _ -> true
      | Ok _ -> false)

let envelope_garbage_total =
  QCheck.Test.make ~name:"unseal of garbage never raises" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> match Envelope.unseal s with Ok _ | Error _ -> true)

let test_envelope_crc_vector () =
  (* The classic IEEE 802.3 check vector pins the polynomial and
     reflection conventions. *)
  Alcotest.(check int32) "crc32(\"123456789\")" 0xCBF43926l
    (Envelope.crc32 "123456789");
  Alcotest.(check int) "header size" 4 Envelope.header_bytes

let arbitrary_err = QCheck.make ~print:Err.to_string err_gen

let err_value_roundtrip =
  QCheck.Test.make ~name:"Err.of_value (to_value e) = e" ~count:500
    arbitrary_err (fun e ->
      match Err.of_value (Err.to_value e) with
      | Ok e' -> Err.equal e e'
      | Error _ -> false)

(* The full path a remote error reply actually takes: struct -> value ->
   bytes -> value -> struct. *)
let err_codec_roundtrip =
  QCheck.Test.make ~name:"Err survives encode/decode" ~count:500
    arbitrary_err (fun e ->
      match Codec.decode (Codec.encode (Err.to_value e)) with
      | Error _ -> false
      | Ok v -> (
          match Err.of_value v with
          | Ok e' -> Err.equal e e'
          | Error _ -> false))

(* --- the runtime message and its edge encoding --- *)

module Msg = Legion_rt.Msg
module Loid = Legion_naming.Loid

let loid_gen : Loid.t QCheck.Gen.t =
  let open QCheck.Gen in
  map3
    (fun c s key -> Loid.make ~public_key:key ~class_id:c ~class_specific:s ())
    int64 int64
    (oneof [ return ""; string_size (1 -- 24) ])

let msg_gen : Msg.t QCheck.Gen.t =
  let open QCheck.Gen in
  let env =
    map3
      (fun responsible security calling ->
        Legion_sec.Env.make ~responsible ~security ~calling)
      loid_gen loid_gen loid_gen
  in
  let call =
    map3
      (fun meth args env -> { Msg.meth; args; env })
      (string_size (0 -- 12))
      (list_size (0 -- 4) value_gen)
      env
  in
  oneof
    [
      map3
        (fun (id, src_host, dst_slot) (src_loid, dst_loid) call ->
          Msg.Call { id; src_loid; src_host; dst_loid; dst_slot; call })
        (triple nat nat nat) (pair loid_gen loid_gen) call;
      map2
        (fun id reply -> Msg.Reply { id; reply })
        nat
        (oneof [ map Result.ok value_gen; map Result.error err_gen ]);
    ]

let arbitrary_msg =
  QCheck.make ~print:(fun m -> Value.to_string (Msg.to_value m)) msg_gen

(* Structural equality is exact here: generated floats are finite. *)
let msg_roundtrip =
  QCheck.Test.make ~name:"Msg.of_value (to_value m) = Some m" ~count:500
    arbitrary_msg (fun m -> Msg.of_value (Msg.to_value m) = Some m)

let msg_size_matches =
  QCheck.Test.make ~name:"Msg.size m = size_bytes (to_value m)" ~count:500
    arbitrary_msg (fun m -> Msg.size m = Value.size_bytes (Msg.to_value m))

(* Arbitrary values, and real messages with one field replaced by an
   arbitrary value or removed: decoding answers, it never raises. *)
let msg_decode_total =
  QCheck.Test.make ~name:"Msg.of_value never raises" ~count:500
    QCheck.(triple arbitrary_msg small_nat (option arbitrary_value))
    (fun (m, i, replacement) ->
      let mangled =
        match Msg.to_value m with
        | Value.Record fields ->
            let i = i mod List.length fields in
            Value.Record
              (List.concat
                 (List.mapi
                    (fun j (name, v) ->
                      if j <> i then [ (name, v) ]
                      else
                        match replacement with
                        | Some r -> [ (name, r) ]
                        | None -> [])
                    fields))
        | v -> v
      in
      let total v = match Msg.of_value v with Some _ | None -> true in
      total mangled
      && total (Option.value replacement ~default:Value.Unit))

(* Pre-upgrade peers encode with fields missing; each legacy shape must
   decode to the documented default, not fail the call. *)
let test_err_legacy_decodes () =
  let check name v expected =
    match Err.of_value v with
    | Ok e -> Alcotest.check err_t name expected e
    | Error msg -> Alcotest.failf "%s failed to decode: %s" name msg
  in
  check "nqm without epoch"
    (Value.Record
       [ ("c", Value.Str "nqm"); ("h", Value.Int 1); ("n", Value.Int 3) ])
    (Err.No_quorum { have = 1; need = 3; epoch = 0 });
  check "tlk without holder or hint"
    (Value.Record [ ("c", Value.Str "tlk") ])
    (Err.Txn_locked { holder = ""; retry_after = 0.0 });
  check "tlk with holder only"
    (Value.Record [ ("c", Value.Str "tlk"); ("h", Value.Str "t9") ])
    (Err.Txn_locked { holder = "t9"; retry_after = 0.0 });
  check "txa without txn id"
    (Value.Record [ ("c", Value.Str "txa") ])
    (Err.Txn_aborted { txn = "" });
  check "qex without tenant or hint"
    (Value.Record [ ("c", Value.Str "qex") ])
    (Err.Quota_exceeded { tenant = ""; retry_after = 0.0 });
  check "dny without tenant or reason"
    (Value.Record [ ("c", Value.Str "dny") ])
    (Err.Denied { tenant = ""; reason = "" });
  (* Unknown codes from a newer peer are an error, not a crash. *)
  (match Err.of_value (Value.Record [ ("c", Value.Str "zzz") ]) with
  | Error _ -> ()
  | Ok e -> Alcotest.failf "unknown code decoded as %s" (Err.to_string e));
  (* A non-record is an error, not a crash. *)
  match Err.of_value (Value.Int 3) with
  | Error _ -> ()
  | Ok e -> Alcotest.failf "non-record decoded as %s" (Err.to_string e)

let test_err_classification () =
  Alcotest.(check bool) "lock rejection retryable" true
    (Err.is_retryable (Err.Txn_locked { holder = "t"; retry_after = 0.1 }));
  Alcotest.(check bool) "abort verdict not retryable" false
    (Err.is_retryable (Err.Txn_aborted { txn = "t" }));
  Alcotest.(check bool) "lock is not a delivery failure" false
    (Err.is_delivery_failure
       (Err.Txn_locked { holder = "t"; retry_after = 0.1 }));
  Alcotest.(check (option (float 1e-9))) "lock carries its retry hint"
    (Some 0.25)
    (Err.retry_after (Err.Txn_locked { holder = "t"; retry_after = 0.25 }));
  Alcotest.(check bool) "quota shed retryable" true
    (Err.is_retryable (Err.Quota_exceeded { tenant = "m"; retry_after = 0.1 }));
  Alcotest.(check bool) "quota shed is overload, not delivery failure" true
    (Err.is_overload (Err.Quota_exceeded { tenant = "m"; retry_after = 0.1 })
    && not
         (Err.is_delivery_failure
            (Err.Quota_exceeded { tenant = "m"; retry_after = 0.1 })));
  Alcotest.(check (option (float 1e-9))) "quota shed carries its retry hint"
    (Some 0.5)
    (Err.retry_after (Err.Quota_exceeded { tenant = "m"; retry_after = 0.5 }));
  Alcotest.(check bool) "policy denial terminal" false
    (Err.is_retryable (Err.Denied { tenant = "e"; reason = "policy" })
    || Err.is_delivery_failure (Err.Denied { tenant = "e"; reason = "policy" }))

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "scalar roundtrips" `Quick test_scalar_roundtrips;
          Alcotest.test_case "truncated input fails" `Quick test_truncated_fails;
          Alcotest.test_case "trailing bytes fail" `Quick test_trailing_fails;
          Alcotest.test_case "unknown tag fails" `Quick test_unknown_tag_fails;
          Alcotest.test_case "deep nesting rejected" `Quick test_deep_nesting_rejected;
          QCheck_alcotest.to_alcotest roundtrip;
          QCheck_alcotest.to_alcotest size_matches;
          QCheck_alcotest.to_alcotest decode_never_raises;
          QCheck_alcotest.to_alcotest decode_mutation_robust;
        ] );
      ( "value",
        [
          Alcotest.test_case "duplicate record fields" `Quick
            test_record_duplicate_rejected;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "option encoding" `Quick test_of_option_roundtrip;
          Alcotest.test_case "depth" `Quick test_depth;
          QCheck_alcotest.to_alcotest compare_consistent_with_equal;
          QCheck_alcotest.to_alcotest pp_total;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "CRC-32 check vector" `Quick
            test_envelope_crc_vector;
          QCheck_alcotest.to_alcotest envelope_roundtrip;
          QCheck_alcotest.to_alcotest envelope_rejects_mutation;
          QCheck_alcotest.to_alcotest envelope_rejects_truncation;
          QCheck_alcotest.to_alcotest envelope_garbage_total;
        ] );
      ( "errors",
        [
          Alcotest.test_case "legacy encodings decode" `Quick
            test_err_legacy_decodes;
          Alcotest.test_case "retryability classification" `Quick
            test_err_classification;
          QCheck_alcotest.to_alcotest err_value_roundtrip;
          QCheck_alcotest.to_alcotest err_codec_roundtrip;
        ] );
      ( "msg",
        [
          QCheck_alcotest.to_alcotest msg_roundtrip;
          QCheck_alcotest.to_alcotest msg_size_matches;
          QCheck_alcotest.to_alcotest msg_decode_total;
        ] );
    ]
