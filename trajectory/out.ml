(** A minimal JSON writer for the bench's result lines and files. *)

type t =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | List of t list
  | Obj of (string * t) list

(* every digit a float carries; JSON has no NaN or infinity *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec to_buffer b = function
  | Num f -> Buffer.add_string b (num f)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        to_buffer b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b (Printf.sprintf "%S: " k);
        to_buffer b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  to_buffer b v;
  Buffer.contents b

let write path v =
  let oc = open_out path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc
