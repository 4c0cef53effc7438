#include <stdio.h>

int d;

int main(void) {
    int b = 2;
    d = b + d;
    return d;
}
