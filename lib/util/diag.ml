type severity = Error | Warning | Info

type span = { file : string option; line : int option; col : int option }

let no_span = { file = None; line = None; col = None }

let span ?file ?line ?col () = { file; line; col }

type t = {
  code : string;
  severity : severity;
  message : string;
  where : span;
  subject : string option;
}

let v ?(where = no_span) ?subject severity ~code message =
  { code; severity; message; where; subject }

let errorf ?where ?subject ~code fmt =
  Printf.ksprintf (fun m -> v ?where ?subject Error ~code m) fmt

let warningf ?where ?subject ~code fmt =
  Printf.ksprintf (fun m -> v ?where ?subject Warning ~code m) fmt

let infof ?where ?subject ~code fmt =
  Printf.ksprintf (fun m -> v ?where ?subject Info ~code m) fmt

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds

let count ds =
  List.fold_left
    (fun (e, w) d ->
      match d.severity with Error -> (e + 1, w) | Warning -> (e, w + 1) | Info -> (e, w))
    (0, 0) ds

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let by_severity ds =
  List.stable_sort (fun a b -> compare (severity_rank a.severity) (severity_rank b.severity)) ds

let exit_code ~strict ds =
  let e, w = count ds in
  if e > 0 || (strict && w > 0) then 1 else 0

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_span ppf s =
  match (s.file, s.line, s.col) with
  | None, None, _ -> ()
  | file, Some line, col ->
    Fmt.pf ppf " %s%d%s:"
      (match file with Some f -> f ^ ":" | None -> "line ")
      line
      (match col with Some c -> ":" ^ string_of_int c | None -> "")
  | Some file, None, _ -> Fmt.pf ppf " %s:" file

let pp ppf d =
  Fmt.pf ppf "%s[%s]%a %s%s" (severity_name d.severity) d.code pp_span d.where d.message
    (match d.subject with Some s -> Printf.sprintf " (%s)" s | None -> "")

let pp_list ppf = function
  | [] -> Fmt.pf ppf "no diagnostics"
  | ds ->
    List.iter (fun d -> Fmt.pf ppf "%a@." pp d) ds;
    let e, w = count ds in
    Fmt.pf ppf "%d error%s, %d warning%s" e (if e = 1 then "" else "s") w
      (if w = 1 then "" else "s")

let to_json d =
  let opt key f = function Some x -> [ (key, f x) ] | None -> [] in
  let num i = Json.Num (float_of_int i) in
  Json.to_line
    (Json.Obj
       ([
          ("code", Json.Str d.code);
          ("severity", Json.Str (severity_name d.severity));
          ("message", Json.Str d.message);
        ]
       @ opt "file" (fun f -> Json.Str f) d.where.file
       @ opt "line" num d.where.line
       @ opt "col" num d.where.col
       @ opt "subject" (fun s -> Json.Str s) d.subject))

let json_list ds =
  match ds with
  | [] -> "[]"
  | ds -> "[\n" ^ String.concat ",\n" (List.map (fun d -> "  " ^ to_json d) ds) ^ "\n]"
