"""The Java front end: a lexer (``tokenizer``) and a declaration parser
(``structure``)."""
