(* The answer check must fire: feed each workload's check the oracle's
   own answers, once intact and once with one answer corrupted, and
   expect exactly 0 and 1 failures. *)

open Common

let corrupt = function [] -> [ 0 ] | _ :: rest -> rest

let expect name ~intact ~corrupted =
  let ok = intact = 0 && corrupted = 1 in
  Printf.printf "selftest %-12s intact answers: %d failed; one corrupted: %d failed  %s\n%!"
    name intact corrupted (if ok then "ok" else "CHECK DID NOT FIRE");
  ok

let paged () =
  let inp = Paged.inputs 3 in
  let o = Oracle.create (Paged.docs inp.seed) in
  let answers =
    Array.init 40 (fun i ->
        let shape = inp.stream.(i) in
        ( shape,
          Oracle.answer o ~n:Paged.records
            (Xquery.Xpath_parser.parse inp.shapes.(shape)) ))
  in
  let checked a = Paged.check inp (Array.map (fun (s, ids) -> (s, Ok (digest ids))) a) in
  let bad = Array.copy answers in
  bad.(7) <- (fst bad.(7), corrupt (snd bad.(7)));
  expect "serve-paged" ~intact:(checked answers) ~corrupted:(checked bad)

let qmem () =
  let inp = Qmem.inputs 3 in
  let o = Oracle.create (Qmem.docs inp.seed) in
  let answers =
    Array.init 40 (fun i ->
        (i, Oracle.answer o ~n:Qmem.records (Xquery.Xpath_parser.parse inp.queries.(i))))
  in
  let checked a = Qmem.check inp (Array.map (fun (i, ids) -> (i, Ok (digest ids))) a) in
  let bad = Array.copy answers in
  bad.(7) <- (fst bad.(7), corrupt (snd bad.(7)));
  expect "query-mem" ~intact:(checked answers) ~corrupted:(checked bad)

(* The ingest check rebuilds the live set from the op stream; answer
   every query of an op prefix from that same rebuild, then corrupt one. *)
let ingest () =
  let inp = Ingest.inputs 3 in
  let n = 400 in
  let deleted = Hashtbl.create 64 and next_id = ref Ingest.live in
  let o = Oracle.create (Ingest.docs inp) in
  let outcomes =
    Array.init n (fun k ->
        let ids =
          match inp.ops.(k) with
          | Ingest.Insert _ ->
            incr next_id;
            []
          | Ingest.Delete id ->
            Hashtbl.replace deleted id ();
            []
          | Ingest.Query s ->
            Oracle.answer o ~n:!next_id
              ~live:(fun id -> not (Hashtbl.mem deleted id))
              (Xquery.Xpath_parser.parse inp.xpaths.(s))
        in
        (k, ids))
  in
  let checked a =
    Ingest.check inp
      (Array.map (fun (k, ids) -> { Ingest.o_op = k; o_ok = Ok (digest ids); o_dt = 0. }) a)
  in
  let q =
    let rec last k =
      match inp.ops.(k) with Ingest.Query _ -> k | _ -> last (k - 1)
    in
    last (n - 1)
  in
  let bad = Array.copy outcomes in
  bad.(q) <- (q, corrupt (snd bad.(q)));
  expect "ingest-mixed" ~intact:(checked outcomes) ~corrupted:(checked bad)

let run () =
  let q = qmem () in
  let p = paged () in
  let i = ingest () in
  if q && p && i then 0 else 1
