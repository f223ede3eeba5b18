(* Property-based equivalence of every query path against the brute-force
   embedding oracle, plus unit tests for the XPath parser and matcher
   internals.  Trees use a tiny alphabet so identical siblings and deep
   sharing occur constantly — the regime where naive matching fails. *)

module T = Xmlcore.Xml_tree
module Gen = QCheck.Gen
module Pattern = Xquery.Pattern

let tags = [| "a"; "b"; "c"; "d" |]
let vals = [| "v0"; "v1"; "v2" |]

let doc_gen : T.t Gen.t =
  let open Gen in
  let rec tree depth st =
    let fanout = if depth >= 4 then 0 else int_bound (4 - depth) st in
    let kids =
      List.init fanout (fun _ ->
          if depth >= 1 && int_bound 3 st = 0 then T.text (oneofa vals st)
          else tree (depth + 1) st)
    in
    T.elt (oneofa tags st) kids
  in
  tree 0

let corpus_gen = Gen.(list_size (int_range 1 15) doc_gen)

(* A test case: a corpus plus a seed from which queries are derived. *)
let case_gen = Gen.pair corpus_gen (Gen.int_bound 10_000)

let case_print (docs, seed) =
  Printf.sprintf "seed=%d docs=[%s]" seed
    (String.concat "; " (List.map (Format.asprintf "%a" T.pp) docs))

let queries_of ~seed docs =
  let opts =
    {
      Xdatagen.Query_gen.size = 5;
      star_prob = 0.2;
      desc_prob = 0.2;
      value_prob = 0.5;
      wide = false;
    }
  in
  Xdatagen.Query_gen.generate ~seed ~opts docs 6

let mk_prop name ~count f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count (QCheck.make ~print:case_print case_gen) f)

let oracle pattern docs = Xquery.Embedding.filter pattern docs

let prop_engine_vs_oracle config_name config (docs, seed) =
  let docs = Array.of_list docs in
  let index = Xseq.build ~config docs in
  List.for_all
    (fun q ->
      let got = Xseq.query index q in
      let want = oracle q docs in
      if got <> want then
        QCheck.Test.fail_reportf "%s: query %s: got [%s] want [%s]" config_name
          (Pattern.to_string q)
          (String.concat "," (List.map string_of_int got))
          (String.concat "," (List.map string_of_int want))
      else true)
    (queries_of ~seed docs)

let engine_prop name config =
  mk_prop ("engine = oracle: " ^ name) ~count:120 (prop_engine_vs_oracle name config)

(* Naive matching may only ADD results (false alarms), never lose any. *)
let prop_naive_superset (docs, seed) =
  let docs = Array.of_list docs in
  let index = Xseq.build docs in
  let labeled = Xseq.labeled index in
  List.for_all
    (fun q ->
      match
        Xquery.Engine.compile ~strategy:(Xseq.strategy index)
          ~value_mode:(Xseq.value_mode index) labeled q
      with
      | exception Xquery.Instantiate.Too_many _ -> true (* fallback path *)
      | compiled ->
        let naive =
          Xquery.Matcher.run_collect ~mode:Xquery.Matcher.Naive labeled compiled
        in
        let exact =
          Xquery.Matcher.run_collect ~mode:Xquery.Matcher.Constraint labeled
            compiled
        in
        List.for_all (fun d -> List.mem d naive) exact)
    (queries_of ~seed docs)

(* Persistence: a saved-and-reloaded index answers every query as the
   original. *)
let prop_save_load (docs, seed) =
  let docs = Array.of_list docs in
  let index = Xseq.build docs in
  let path = Filename.temp_file "xseq_prop" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Xseq.save index path;
      let restored = Xseq.load path in
      List.for_all
        (fun q -> Xseq.query index q = Xseq.query restored q)
        (queries_of ~seed docs))

(* Page accounting: the link regions and the document table are
   page-aligned and disjoint, so their per-query page counts partition the
   total. *)
let prop_pager_partition (docs, seed) =
  let docs = Array.of_list docs in
  let index = Xseq.build docs in
  let labeled = Xseq.labeled index in
  let doc_base = Xindex.Labeled.doc_table_base labeled in
  let doc_end = max (doc_base + 1) (Xindex.Labeled.layout_bytes labeled) in
  let pager = Xstorage.Pager.create ~page_size:256 () in
  List.for_all
    (fun q ->
      Xstorage.Pager.begin_query pager;
      ignore (Xseq.query ~pager index q);
      let total = Xstorage.Pager.pages_touched pager in
      let links = Xstorage.Pager.pages_touched_between pager ~lo:0 ~hi:doc_base in
      let docs_io =
        Xstorage.Pager.pages_touched_between pager ~lo:doc_base ~hi:doc_end
      in
      total = links + docs_io)
    (queries_of ~seed docs)

let prop_baseline name build query (docs, seed) =
  let docs = Array.of_list docs in
  let b = build docs in
  List.for_all
    (fun q ->
      let got = query b q in
      let want = oracle q docs in
      if got <> want then
        QCheck.Test.fail_reportf "%s: query %s: got [%s] want [%s]" name
          (Pattern.to_string q)
          (String.concat "," (List.map string_of_int got))
          (String.concat "," (List.map string_of_int want))
      else true)
    (queries_of ~seed docs)

(* --- unit tests -------------------------------------------------------- *)

let e = T.elt

let test_xpath_parser () =
  let check s expected =
    Alcotest.(check string) s expected (Pattern.to_string (Xquery.Xpath_parser.parse s))
  in
  check "/a/b/c" "/a/b/c";
  check "//a" "//a";
  check "/a//b" "/a//b";
  check "/a/*/c" "/a/*/c";
  check "/site//item[location='United States']/mail/date[text='07/05/2000']"
    "/site//item[/location/text()=\"United States\"][/mail/date/text()=\"07/05/2000\"]";
  check "//closed_auction[seller/person='person11304']/date[text='12/15/1999']"
    "//closed_auction[/seller/person/text()=\"person11304\"][/date/text()=\"12/15/1999\"]"

let test_xpath_parser_errors () =
  let fails s =
    match Xquery.Xpath_parser.parse s with
    | exception Xquery.Xpath_parser.Syntax_error _ -> ()
    | _ -> Alcotest.failf "expected syntax error for %s" s
  in
  fails "";
  fails "a/b";
  fails "/a[";
  fails "/a]";
  fails "/a/b extra"

let test_pattern_size () =
  let p = Xquery.Xpath_parser.parse "/a[b='x']/c" in
  Alcotest.(check int) "size" 4 (Pattern.size p)

let test_embedding_injective () =
  (* One document node cannot serve two identical query siblings. *)
  let doc = e "P" [ e "D" [ e "M" []; e "L" [] ] ] in
  let q_two_d =
    Pattern.(elt "P" [ elt "D" [ elt "M" [] ]; elt "D" [ elt "L" [] ] ])
  in
  Alcotest.(check bool) "injective" false (Xquery.Embedding.matches q_two_d doc);
  let doc2 = e "P" [ e "D" [ e "M" [] ]; e "D" [ e "L" [] ] ] in
  Alcotest.(check bool) "two Ds" true (Xquery.Embedding.matches q_two_d doc2);
  (* Unordered: sibling order is irrelevant. *)
  let doc3 = e "P" [ e "D" [ e "L" [] ]; e "D" [ e "M" [] ] ] in
  Alcotest.(check bool) "unordered" true (Xquery.Embedding.matches q_two_d doc3)

let test_naive_false_alarm () =
  (* Figure 4 at matcher level: naive mode reports the false alarm that
     constraint mode rejects. *)
  let d = e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ] in
  let index = Xseq.build (Array.of_list [ d ]) in
  let labeled = Xseq.labeled index in
  let strategy = Xseq.strategy index in
  let pattern = Pattern.(elt "P" [ elt "L" [ elt "S" []; elt "B" [] ] ]) in
  let compiled =
    Xquery.Engine.compile ~strategy ~value_mode:(Xseq.value_mode index) labeled pattern
  in
  let naive = Xquery.Matcher.run_collect ~mode:Xquery.Matcher.Naive labeled compiled in
  let exact = Xquery.Matcher.run_collect ~mode:Xquery.Matcher.Constraint labeled compiled in
  Alcotest.(check (list int)) "naive false alarm" [ 0 ] naive;
  Alcotest.(check (list int)) "constraint rejects" [] exact

let test_matcher_stats () =
  let d = e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ] in
  let index = Xseq.build (Array.of_list [ d; d ]) in
  let stats = Xquery.Matcher.create_stats () in
  let _ = Xseq.query_xpath ~stats index "/P/L/S" in
  Alcotest.(check bool) "probes counted" true (stats.probes > 0);
  Alcotest.(check bool) "candidates counted" true (stats.candidates > 0);
  Alcotest.(check bool) "matches counted" true (stats.matches > 0)

let test_instantiate_star () =
  let d = e "P" [ e "R" [ e "M" [] ]; e "D" [ e "M" [] ] ] in
  let index = Xseq.build (Array.of_list [ d ]) in
  let mem p = Option.is_some (Xindex.Labeled.link (Xseq.labeled index) p) in
  let pattern = Pattern.(elt "P" [ star [ elt "M" [] ] ]) in
  let cnodes =
    Xquery.Instantiate.run ~mem ~value_mode:Sequencing.Encoder.Hashed pattern
  in
  Alcotest.(check int) "star instantiates to R and D" 2 (List.length cnodes)

let test_instantiate_descendant () =
  let d = e "a" [ e "b" [ e "c" [ e "d" [] ] ] ] in
  let index = Xseq.build (Array.of_list [ d ]) in
  let mem p = Option.is_some (Xindex.Labeled.link (Xseq.labeled index) p) in
  let pattern = Pattern.(elt "a" [ elt ~axis:Descendant "d" [] ]) in
  let cnodes =
    Xquery.Instantiate.run ~mem ~value_mode:Sequencing.Encoder.Hashed pattern
  in
  Alcotest.(check int) "one concrete d" 1 (List.length cnodes);
  (* no zero-depth // self match: the only 'a' path is the root itself *)
  let p2 = Pattern.(elt "a" [ elt ~axis:Descendant "a" [] ]) in
  let c2 = Xquery.Instantiate.run ~mem ~value_mode:Sequencing.Encoder.Hashed p2 in
  Alcotest.(check int) "no self match" 0 (List.length c2)

let test_query_seq_permutations () =
  let d = e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ] in
  let index = Xseq.build (Array.of_list [ d ]) in
  let mem p = Option.is_some (Xindex.Labeled.link (Xseq.labeled index) p) in
  let pattern =
    Pattern.(elt "P" [ elt "L" [ elt "S" [] ]; elt "L" [ elt "B" [] ] ])
  in
  let cnodes =
    Xquery.Instantiate.run ~mem ~value_mode:Sequencing.Encoder.Hashed pattern
  in
  let compiled =
    List.concat_map (Xquery.Query_seq.compile ~strategy:(Xseq.strategy index)) cnodes
  in
  (* Two identical L siblings: both subtree orders must be generated. *)
  Alcotest.(check int) "two permutations" 2 (List.length compiled)

(* Regression: a query branch reaching *through* a duplicated path (here
   d.c) must be tried both inside the same d.c block as its sibling branch
   and in a different one (junction normalisation + set partitions).
   Found by the oracle-equivalence property. *)
let test_regression_junction_blocks () =
  let doc =
    e "d"
      [
        e "c" [ e "c" [ e "c" [ e "d" [] ] ]; e "d" [ e "a" [ e "d" [] ]; e "c" [] ] ];
        e "c" [ e "a" [ e "c" [] ] ];
      ]
  in
  let index = Xseq.build [| doc |] in
  (* //d needs the d under the FIRST c, while c/a needs the SECOND c. *)
  Alcotest.(check (list int)) "cross-block match" [ 0 ]
    (Xseq.query_xpath index "/d[//d][/c/a]")

(* Regression: identical-sibling permutations must survive sequencing —
   equal paths need equal scheduler priority so the rank tie-break can
   realise both orders (dense lexicographic ranks).  Found by the
   oracle-equivalence property on the depth-first configuration. *)
let test_regression_permutation_ranks () =
  let doc =
    e "b"
      [
        e "b" [];
        e "d" [];
        e "d" [ T.text "v0"; e "a" [ e "d" [ e "c" [] ]; T.text "v1" ]; e "c" [ e "a" [] ] ];
      ]
  in
  let config =
    { Xseq.default_config with sequencing = Xseq.Depth_first { canonical = true } }
  in
  let index = Xseq.build ~config [| doc |] in
  let q = Pattern.(star [ elt "b" []; elt "d" []; elt "d" [ text "v0" ] ]) in
  Alcotest.(check (list int)) "bare d + d(v0)" [ 0 ] (Xseq.query index q)

let test_explain () =
  let d = e "P" [ e "R" [ e "M" [] ]; e "D" [ e "M" [] ] ] in
  let index = Xseq.build (Array.of_list [ d; d ]) in
  let ex = Xseq.explain index Pattern.(elt "P" [ star [ elt "M" [] ] ]) in
  Alcotest.(check int) "instantiations" 2 ex.Xquery.Engine.instantiations;
  Alcotest.(check int) "sequences" 2 ex.sequences;
  Alcotest.(check int) "results" 2 ex.results;
  Alcotest.(check bool) "probes" true (ex.stats.Xquery.Matcher.probes > 0);
  Alcotest.(check int) "steps" 2 (List.length ex.steps);
  (* Each element looks ahead to the first later one of least link
     length. *)
  let rarest lens i =
    let best = ref (-1) in
    for j = Array.length lens - 1 downto i + 1 do
      if !best < 0 || lens.(j) <= lens.(!best) then best := j
    done;
    !best
  in
  List.iter
    (fun (steps : Xquery.Engine.step array) ->
      let lens =
        Array.map (fun (s : Xquery.Engine.step) -> s.link_length) steps
      in
      Alcotest.(check (array int)) "look-ahead per element"
        (Array.mapi (fun i _ -> rarest lens i) lens)
        (Array.map (fun (s : Xquery.Engine.step) -> s.lookahead) steps))
    ex.steps

let test_parents_across_descendant () =
  let d = e "a" [ e "b" [ e "c" [ e "d" [] ] ] ] in
  let index = Xseq.build (Array.of_list [ d ]) in
  Alcotest.(check (list int)) "a//d" [ 0 ] (Xseq.query_xpath index "/a//d");
  Alcotest.(check (list int)) "a//c/d" [ 0 ] (Xseq.query_xpath index "/a//c/d");
  Alcotest.(check (list int)) "a//b//d" [ 0 ] (Xseq.query_xpath index "/a//b//d")

(* --- finger-search matcher ---------------------------------------------- *)

module Labeled = Xindex.Labeled
module Matcher = Xquery.Matcher

let compile_for index pattern =
  Xquery.Engine.compile ~strategy:(Xseq.strategy index)
    ~value_mode:(Xseq.value_mode index) (Xseq.labeled index) pattern

let link_of index p = Option.get (Labeled.link (Xseq.labeled index) p)

(* Constraint mode answers exactly the oracle; Naive mode may only add
   false alarms to it. *)
let check_modes name docs index pattern =
  let labeled = Xseq.labeled index in
  let compiled = compile_for index pattern in
  let exact = Matcher.run_collect ~mode:Matcher.Constraint labeled compiled in
  Alcotest.(check (list int)) (name ^ ": constraint = oracle")
    (oracle pattern docs) exact;
  let naive = Matcher.run_collect ~mode:Matcher.Naive labeled compiled in
  Alcotest.(check bool) (name ^ ": naive is a superset") true
    (List.for_all (fun d -> List.mem d naive) exact)

(* Longest [up] chain in a link: nesting depth of identical siblings. *)
let max_up_chain l =
  let best = ref 0 in
  for i = 0 to Labeled.link_length l - 1 do
    let n = ref 0 and k = ref (Labeled.link_up l i) in
    while !k >= 0 do
      incr n;
      k := Labeled.link_up l !k
    done;
    best := max !best !n
  done;
  !best

(* A dead b (no d below it) precedes four nested identical b siblings,
   only the innermost holding the d: the skip past the dead b must land
   on the outermost of the four, three [up] steps above the floor of
   the d. *)
let test_skip_deep_nesting () =
  let docs =
    [|
      e "a" [ e "b" [ e "x" [] ] ];
      e "a"
        [
          e "c" [];
          e "b" [ e "e" [] ];
          e "b" [ e "e" [] ];
          e "b" [ e "e" [] ];
          e "b" [ e "d" [] ];
        ];
      (* Frequent c sequences a.c before a.b in the nested document, so
         its b chain does not share the dead b's trie node. *)
      e "a" [ e "c" [] ];
      e "a" [ e "c" [] ];
      e "a" [ e "c" [] ];
    |]
  in
  let index = Xseq.build docs in
  let pattern = Xquery.Xpath_parser.parse "/a/b/d" in
  let q = List.hd (compile_for index pattern) in
  let lb = link_of index q.paths.(1) and ld = link_of index q.paths.(2) in
  let d_pre = Labeled.link_pre ld 0 in
  Alcotest.(check bool) "first b is dead" true (Labeled.link_post lb 0 < d_pre);
  Alcotest.(check bool) "b chain of length >= 3" true (max_up_chain lb >= 3);
  check_modes "deep nesting" docs index pattern;
  check_modes "deep nesting, b with e" docs index
    (Xquery.Xpath_parser.parse "/a/b[e]")

(* /a[b][b]: both b's compile to the same encoding, so one link serves
   two consecutive levels, each with its own cursor. *)
let test_same_link_consecutive_levels () =
  let docs =
    [|
      e "a" [ e "b" []; e "b" [] ];
      e "a" [ e "b" [] ];
      e "a" [ e "b" [ e "c" [] ]; e "b" []; e "b" [] ];
    |]
  in
  let index = Xseq.build docs in
  let pattern = Xquery.Xpath_parser.parse "/a[b][b]" in
  let compiled = compile_for index pattern in
  Alcotest.(check bool) "one encoding at consecutive levels" true
    (List.exists
       (fun (q : Xquery.Query_seq.compiled) ->
         let n = Array.length q.paths in
         List.exists
           (fun i -> Sequencing.Path.equal q.paths.(i) q.paths.(i + 1))
           (List.init (n - 1) Fun.id))
       compiled);
  check_modes "same link" docs index pattern;
  check_modes "same link, three deep" docs index
    (Xquery.Xpath_parser.parse "/a[b][b][b]")

(* The second b lies past the last c: the seek for its next level finds
   the c link exhausted, and the level stops mid-scan. *)
let test_next_link_runs_out () =
  let docs = [| e "a" [ e "b" [ e "c" [] ]; e "b" [] ]; e "a" [ e "b" [] ] |] in
  let index = Xseq.build docs in
  let pattern = Xquery.Xpath_parser.parse "/a/b/c" in
  let q = List.hd (compile_for index pattern) in
  let lb = link_of index q.paths.(1) and lc = link_of index q.paths.(2) in
  Alcotest.(check bool) "a b lies past the last c" true
    (Labeled.link_pre lb (Labeled.link_length lb - 1)
    > Labeled.link_pre lc (Labeled.link_length lc - 1));
  check_modes "link runs out" docs index pattern

(* Two nested b candidates both reach the later c: the second b reports
   a c that precedes the one the first reported last, so the document
   table is searched with a key that moved backwards. *)
let test_doc_keys_out_of_order () =
  let docs =
    [| e "a" [ e "b" []; e "c" [] ]; e "a" [ e "b" []; e "b" []; e "c" [] ] |]
  in
  let index = Xseq.build docs in
  let labeled = Xseq.labeled index in
  let pattern = Xquery.Xpath_parser.parse "/a[b][c]" in
  (* Document-table positions in report order: a drop marks a key that
     arrived out of order. *)
  let position = Hashtbl.create 8 in
  for k = 0 to Labeled.doc_len labeled - 1 do
    Hashtbl.replace position (Labeled.doc_id_at labeled k) k
  done;
  let reported = ref [] in
  List.iter
    (fun q ->
      Matcher.run labeled q ~on_doc:(fun d ->
          reported := Hashtbl.find position d :: !reported))
    (compile_for index pattern);
  let rec drops = function
    | later :: (earlier :: _ as rest) -> later < earlier || drops rest
    | _ -> false
  in
  Alcotest.(check bool) "a key arrives out of order" true (drops !reported);
  check_modes "doc keys out of order" docs index pattern

(* --- rarest-later-level lookahead --------------------------------------- *)

(* [n] one-child documents root[x] for each name: frequent paths that the
   probability strategy sequences before root.b, so the b nodes under
   different first children are distinct trie nodes. *)
let fill root n names =
  List.concat_map (fun x -> List.init n (fun _ -> e root [ e x [] ])) names

let lookahead_of index pattern =
  let q = List.hd (compile_for index pattern) in
  (q, Matcher.lookahead (Xseq.labeled index) q)

(* Whether some entry of link [l] has its range [(pre, post]] holding an
   entry of [m]. *)
let holds l m k =
  let pre = Labeled.link_pre l k and post = Labeled.link_post l k in
  List.exists
    (fun j ->
      let x = Labeled.link_pre m j in
      pre < x && x <= post)
    (List.init (Labeled.link_length m) Fun.id)

(* /a/b/c/d where d is the rarest link: every level looks ahead to d,
   two levels below b.  The b under g holds a c but no d, so d kills it
   while the next level is alive. *)
let test_rare_two_below () =
  let docs =
    Array.of_list
      ([
         e "a" [ e "f" []; e "b" [ e "c" [ e "d" [] ] ] ];
         e "a" [ e "g" []; e "b" [ e "c" [] ] ];
         e "a" [ e "h" []; e "b" [ e "c" [ e "d" [] ] ] ];
       ]
      @ fill "a" 4 [ "f"; "g"; "h" ])
  in
  let index = Xseq.build docs in
  let pattern = Xquery.Xpath_parser.parse "/a/b/c/d" in
  let q, rare = lookahead_of index pattern in
  Alcotest.(check (array int))
    "every level looks ahead to d" [| 3; 3; 3; -1 |] rare;
  let lb = link_of index q.paths.(1)
  and lc = link_of index q.paths.(2)
  and ld = link_of index q.paths.(3) in
  Alcotest.(check bool) "a b holds a c but no d" true
    (List.exists
       (fun k -> holds lb lc k && not (holds lb ld k))
       (List.init (Labeled.link_length lb) Fun.id));
  check_modes "rare two below" docs index pattern;
  check_modes "rare two below, branching" docs index
    (Xquery.Xpath_parser.parse "/a/b[c/d]")

(* The dead s's skip lands on p1 = the t's serial.  Its floor is the
   innermost of four nested identical s siblings; the three above it end
   before the t and only the outermost contains it.  Trie children are
   ordered by path id, so the test uses tags no earlier test interned:
   the u branch, holding the dead s, comes first. *)
let test_climb_past_inner_ancestors () =
  let docs =
    Array.of_list
      ([
         e "r" [ e "u" []; e "s" [ e "w" [] ] ];
         e "r" [ e "s" []; e "s" []; e "s" []; e "s" [] ];
         e "r" [ e "s" [ e "t" [] ] ];
       ]
      @ fill "r" 4 [ "u" ])
  in
  let index = Xseq.build docs in
  let pattern = Xquery.Xpath_parser.parse "/r/s/t" in
  let q = List.hd (compile_for index pattern) in
  let ls = link_of index q.paths.(1) and lt = link_of index q.paths.(2) in
  let p1 = Labeled.link_pre lt 0 in
  Alcotest.(check bool) "first s is dead" true (Labeled.link_post ls 0 < p1);
  let rec chain k = if k < 0 then [] else k :: chain (Labeled.link_up ls k) in
  let ups = chain (Labeled.link_floor ls p1) in
  let contains k = Labeled.link_post ls k >= p1 in
  Alcotest.(check bool)
    "floor's up chain >= 3 steps" true
    (List.length ups >= 4);
  Alcotest.(check bool) "inner ancestor misses p1, outer contains it" true
    (List.exists (fun k -> k <> List.hd ups && not (contains k)) ups
    && contains (List.nth ups (List.length ups - 1)));
  check_modes "climb" docs index pattern;
  check_modes "climb, s only" docs index (Xquery.Xpath_parser.parse "/r/s")

(* z's only entry precedes the q under n and the q under o: the seek of
   the rare level from the first of them runs off the end of its link,
   which ends the level.  Fresh tags again fix the branch order m, n,
   o. *)
let test_rare_link_runs_out () =
  let docs =
    Array.of_list
      ([
         e "k" [ e "m" []; e "q" [ e "y" [ e "z" [] ] ] ];
         e "k" [ e "n" []; e "q" [ e "y" [] ] ];
         e "k" [ e "o" []; e "q" [ e "y" [] ] ];
       ]
      @ fill "k" 4 [ "m"; "n"; "o" ])
  in
  let index = Xseq.build docs in
  let pattern = Xquery.Xpath_parser.parse "/k/q/y/z" in
  let q, rare = lookahead_of index pattern in
  Alcotest.(check int) "q looks ahead to z" 3 rare.(1);
  let lq = link_of index q.paths.(1) and lz = link_of index q.paths.(3) in
  let last_z = Labeled.link_pre lz (Labeled.link_length lz - 1) in
  Alcotest.(check bool) "two q's lie past the last z" true
    (Labeled.link_length lq >= 3
    && Labeled.link_pre lq (Labeled.link_length lq - 2) > last_z);
  check_modes "rare runs out" docs index pattern

(* c and d have links of equal length: the tie goes to the lower
   level. *)
let test_lookahead_tie () =
  let docs =
    Array.of_list
      ([
         e "a" [ e "f" []; e "b" [ e "c" []; e "d" [] ] ];
         e "a" [ e "g" []; e "b" [ e "c" [] ] ];
         e "a" [ e "h" []; e "b" [ e "d" [] ] ];
       ]
      @ fill "a" 4 [ "f"; "g"; "h" ])
  in
  let index = Xseq.build docs in
  let pattern = Xquery.Xpath_parser.parse "/a/b[c][d]" in
  let q, rare = lookahead_of index pattern in
  let len i = Labeled.link_length (link_of index q.paths.(i)) in
  Alcotest.(check int) "c and d tie" (len 2) (len 3);
  Alcotest.(check bool) "b is longer" true (len 1 > len 2);
  Alcotest.(check (array int))
    "ties go to the lower level" [| 2; 2; 3; -1 |] rare;
  check_modes "tie" docs index pattern

(* Split counters add up to [probes] on every path that answers a query:
   each physical column backend, a live store and a sharded one, and a
   multi-domain batch whose per-worker records are merged. *)
let test_probe_split_sums () =
  let docs = Xdatagen.Dblp_gen.generate 80 in
  let queries = queries_of ~seed:5 docs in
  let check name query =
    let stats = Matcher.create_stats () in
    List.iter (fun q -> ignore (query stats q : int list)) queries;
    let split = List.fold_left (fun a (_, n) -> a + n) 0 (Matcher.probe_split stats) in
    Alcotest.(check int) (name ^ ": split sums to probes") stats.probes split;
    Alcotest.(check bool) (name ^ ": probes counted") true (stats.probes > 0)
  in
  let index = Xseq.build docs in
  let tmp ext = Filename.temp_file "xseq_split" ext in
  let path = tmp ".idx" and zpath = tmp ".idxz" in
  let dir = tmp ".d" and sdir = tmp ".s" in
  List.iter Sys.remove [ dir; sdir ];
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; zpath ];
      ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir; sdir ]) : int))
    (fun () ->
      Xseq.save index path;
      Xseq.save ~format:Xstorage.Store.Col2 index zpath;
      let heap =
        Labeled.remap ~backend:Labeled.Heap_arrays (Xseq.labeled index)
      in
      check "heap" (fun stats q ->
          try
            Xquery.Engine.query ~stats ~strategy:(Xseq.strategy index)
              ~value_mode:(Xseq.value_mode index) heap q
          with Xquery.Instantiate.Too_many _ -> []);
      List.iter
        (fun (name, t) -> check name (fun stats q -> Xseq.query ~stats t q))
        [
          ("columnar", index);
          ("resident", Xseq.load path);
          ("paged", Xseq.load ~mode:Xstorage.Store.Paged ~pool_pages:4 path);
          ("compressed", Xseq.load zpath);
          ( "compressed-paged",
            Xseq.load ~mode:Xstorage.Store.Paged ~pool_pages:4 zpath );
        ];
      let log = Xlog.open_ ~memtable_limit:16 dir in
      Array.iter (fun d -> ignore (Xlog.insert log d : int)) docs;
      check "xlog" (fun stats q -> Xlog.query ~stats log q);
      Xlog.close log;
      let sh = Xshard.open_ ~shards:3 ~memtable_limit:16 sdir in
      Array.iter (fun d -> ignore (Xshard.insert sh d : int)) docs;
      check "xshard" (fun stats q -> Xshard.query ~stats sh q);
      Xshard.close sh;
      let batch = Array.of_list queries in
      let stats = Matcher.create_stats () in
      ignore (Xseq.query_batch ~domains:2 ~stats index batch : int list array);
      Alcotest.(check int) "batch: merged split sums to probes" stats.probes
        (List.fold_left (fun a (_, n) -> a + n) 0 (Matcher.probe_split stats)))

(* Deterministic probe ceiling: a fixed synthetic corpus (the query-mem
   DTD, L3F5A25I10P40 with schema seed 7, 1500 records of data seed 3)
   and a fixed query set.  Before finger search and the dead-candidate
   skip the matcher spent 18_544_432 probes on it.  The next-level skip
   brought that to 2_677_850 probes and 972_427 candidates; the
   rarest-later-level lookahead with the [up]-climb skip to 1_992_417
   probes and 541_338 candidates.  The ceilings are an eighth of the
   first probe count and two thirds of the second candidate count, so a
   regression fails here whatever the box. *)
let seed_probes = 18_544_432
let skip_candidates = 972_427

let test_probe_ceiling () =
  let params = { Xdatagen.Synthetic.l = 3; f = 5; a = 25; i = 10; p = 40 } in
  let schema = Xdatagen.Synthetic.schema ~seed:7 params in
  let docs = Xdatagen.Synthetic.generate ~seed:3 ~schema 1500 in
  let gen ~seed ~star ~desc n =
    Xdatagen.Query_gen.generate ~seed
      ~opts:
        {
          Xdatagen.Query_gen.size = 5;
          star_prob = star;
          desc_prob = desc;
          value_prob = 0.5;
          wide = false;
        }
      docs n
  in
  let queries = gen ~seed:11 ~star:0. ~desc:0. 300 @ gen ~seed:12 ~star:0.3 ~desc:0.3 30 in
  let index = Xseq.build docs in
  let stats = Matcher.create_stats () in
  List.iter (fun q -> ignore (Xseq.query ~stats index q : int list)) queries;
  if stats.probes * 8 > seed_probes then
    Alcotest.failf "%d probes, ceiling %d (an eighth of %d)" stats.probes
      (seed_probes / 8) seed_probes;
  if stats.candidates * 3 > skip_candidates * 2 then
    Alcotest.failf "%d candidates, ceiling %d (two thirds of %d)"
      stats.candidates (skip_candidates * 2 / 3) skip_candidates

(* --- assembling -------------------------------------------------------- *)

let () =
  let cfg sequencing = { Xseq.default_config with sequencing } in
  Alcotest.run "query"
    [
      ( "unit",
        [
          Alcotest.test_case "xpath parser" `Quick test_xpath_parser;
          Alcotest.test_case "xpath errors" `Quick test_xpath_parser_errors;
          Alcotest.test_case "pattern size" `Quick test_pattern_size;
          Alcotest.test_case "embedding injective" `Quick test_embedding_injective;
          Alcotest.test_case "naive false alarm" `Quick test_naive_false_alarm;
          Alcotest.test_case "matcher stats" `Quick test_matcher_stats;
          Alcotest.test_case "instantiate star" `Quick test_instantiate_star;
          Alcotest.test_case "instantiate descendant" `Quick test_instantiate_descendant;
          Alcotest.test_case "query permutations" `Quick test_query_seq_permutations;
          Alcotest.test_case "// parent pointers" `Quick test_parents_across_descendant;
          Alcotest.test_case "regression: junction blocks" `Quick
            test_regression_junction_blocks;
          Alcotest.test_case "regression: permutation ranks" `Quick
            test_regression_permutation_ranks;
          Alcotest.test_case "explain" `Quick test_explain;
        ] );
      ( "finger search",
        [
          Alcotest.test_case "skip over deep identical siblings" `Quick
            test_skip_deep_nesting;
          Alcotest.test_case "one link at consecutive levels" `Quick
            test_same_link_consecutive_levels;
          Alcotest.test_case "next-level link runs out" `Quick
            test_next_link_runs_out;
          Alcotest.test_case "doc-table keys out of order" `Quick
            test_doc_keys_out_of_order;
          Alcotest.test_case "probe split sums on every backend" `Quick
            test_probe_split_sums;
          Alcotest.test_case "probe ceiling" `Quick test_probe_ceiling;
        ] );
      ( "lookahead",
        [
          Alcotest.test_case "rarest level two below" `Quick
            test_rare_two_below;
          Alcotest.test_case "climb past inner ancestors" `Quick
            test_climb_past_inner_ancestors;
          Alcotest.test_case "rare link runs out" `Quick
            test_rare_link_runs_out;
          Alcotest.test_case "ties go to the lower level" `Quick
            test_lookahead_tie;
        ] );
      ( "oracle-equivalence",
        [
          engine_prop "probability" Xseq.default_config;
          engine_prop "depth-first" (cfg (Xseq.Depth_first { canonical = true }));
          engine_prop "breadth-first" (cfg (Xseq.Breadth_first { canonical = true }));
          engine_prop "text-mode"
            { Xseq.default_config with value_mode = Sequencing.Encoder.Text };
          engine_prop "incremental insert" { Xseq.default_config with bulk = false };
          mk_prop "dataguide = oracle" ~count:80
            (prop_baseline "dataguide" Xbaseline.Dataguide.build (fun b q ->
                 Xbaseline.Dataguide.query b q));
          mk_prop "xiss = oracle" ~count:80
            (prop_baseline "xiss" Xbaseline.Xiss.build (fun b q ->
                 Xbaseline.Xiss.query b q));
          mk_prop "vist = oracle" ~count:80
            (prop_baseline "vist" Xbaseline.Vist.build (fun b q ->
                 Xbaseline.Vist.query b q));
          mk_prop "naive superset of constraint" ~count:80 prop_naive_superset;
          mk_prop "save/load preserves answers" ~count:50 prop_save_load;
          mk_prop "pager accounting partitions" ~count:50 prop_pager_partition;
        ] );
    ]
