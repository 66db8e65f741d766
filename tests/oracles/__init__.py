"""Reference implementations that left `covol`: each module holds verbatim
copies and names the commit they came from."""
