(* XPath text for a pattern, in the fragment Xpath_parser accepts.
   Predicates there are single chains, so only patterns with at most one
   branching child per step render; [None] for the rest, and for any
   rendering that does not parse back to the same pattern. *)

open Xquery.Pattern

let literal v =
  if not (String.contains v '\'') then Some ("'" ^ v ^ "'")
  else if not (String.contains v '"') then Some ("\"" ^ v ^ "\"")
  else None

let axis_str = function Child -> "/" | Descendant -> "//"

let name_of = function Tag s -> Some s | Star -> Some "*" | _ -> None

let rec is_chain p =
  match p.children with [] -> true | [ c ] -> is_chain c | _ -> false

(* A chain inside a predicate, without its leading axis. *)
let rec relpath p =
  match p.test, p.children with
  | Text v, [] -> Option.map (fun l -> "text()=" ^ l) (literal v)
  | (Tag _ | Star), [ { test = Text v; children = []; axis = Child } ] ->
    Option.bind (name_of p.test) (fun n ->
        Option.map (fun l -> n ^ "=" ^ l) (literal v))
  | (Tag _ | Star), [] -> name_of p.test
  | (Tag _ | Star), [ c ] ->
    Option.bind (name_of p.test) (fun n ->
        Option.map (fun r -> n ^ axis_str c.axis ^ r) (relpath c))
  | _ -> None

(* One step and what follows it.  The one branching child, if any,
   continues the path; when every child is a chain, the last element
   child does, so [/a[b]/c] renders as it was parsed. *)
let rec steps p =
  let spine, preds = List.partition (fun c -> not (is_chain c)) p.children in
  let spine, preds =
    match spine, List.rev preds with
    | [], last :: rest when (match last.test with Text _ -> false | _ -> true) ->
      ([ last ], List.rev rest)
    | _ -> (spine, preds)
  in
  match spine with
  | _ :: _ :: _ -> None
  | _ ->
    let pred c =
      Option.map
        (fun r ->
          "[" ^ (match c.axis with Child -> "" | Descendant -> "//") ^ r ^ "]")
        (relpath c)
    in
    let rec all acc = function
      | [] -> Some (String.concat "" (List.rev acc))
      | c :: cs -> (match pred c with Some s -> all (s :: acc) cs | None -> None)
    in
    Option.bind (name_of p.test) (fun n ->
        Option.bind (all [] preds) (fun ps ->
            match spine with
            | [] -> Some (n ^ ps)
            | s :: _ ->
              Option.map (fun r -> n ^ ps ^ axis_str s.axis ^ r) (steps s)))

let rec canon p = { p with children = List.sort compare (List.map canon p.children) }

let of_pattern p =
  match steps p with
  | None -> None
  | Some s ->
    let x = axis_str p.axis ^ s in
    (match Xquery.Xpath_parser.parse x with
     | q when canon q = canon p -> Some x
     | _ -> None
     | exception Xquery.Xpath_parser.Syntax_error _ -> None)
